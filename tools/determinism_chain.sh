#!/usr/bin/env bash
# Cross-process determinism of the CLI chain.
#
# Usage, from the root of a checkout: tools/determinism_chain.sh OUT
#
# The benchmark compares repetitions inside one process; this runs the
# chain in fresh processes four times, into OUT/a, OUT/b, OUT/c and OUT/d,
# and requires identical bytes: a and b with the default OpenBLAS threads
# and a worker thread per CPU of the affinity mask, c with one OpenBLAS
# thread, and d also pinned to one CPU (taskset -c 0), where every row-block
# pass runs serially. Every stage sums along one row or one track, never
# through BLAS, and each row or track is summed on one thread, so neither
# thread count changes a byte. The shapes where
# BLAS products used to round by thread count are covered: every lrr-based
# method on a 2500x242 VHT80 capture (n_fft 256, subcarriers -122..-2 and
# 2..122), and lrr+sg2d, bivariate and separable, on a 4000x256 capture.
# At 10000x52 the stages run in several row blocks of 64K cells, most of
# them ending in a partial block; lrr+sgtime there takes sg_time's
# multi-block FFT path outside tsfr. A 1000x52 capture (52000 cells) runs
# as one block: lrr+sgtime and tsfr there take sg_time's one-block FFT path
# (window 101), and lrr+sg2d, bivariate and separable, sg_2d's one-block
# interior and the 1-D passes it chains. synth streams its pair a row
# block at a time; the 2521-symbol drift scene on 26 subcarriers runs two
# blocks of 2520 rows and a last one of a single row. tsfr smooths in
# blocks of subcarrier tracks and walks blocks of symbols: at 1000x52,
# 2000x52 and 10000x52 every symbol clamps, on the VHT80 capture none does,
# and on a 3000x52 capture with n_fft 128 411 symbols do, spread over its
# three row blocks. A 40000x8 capture runs one track per smoothing block,
# as every capture longer than 32768 symbols does, through tsfr and
# lrr+sgtime. The input is opened once, so each of the seven methods and
# every stats table (ds, with and without labels, exceed and diffhist) read
# a capture piped into /dev/stdin as they read its file, to the byte.
# process reads a regular file twice, the phase alone and then the blocks
# the output is formed from, and a pipe once, with the amplitude beside the
# phase. A CSIF output is renamed over its path once written, so an input
# the output replaces (-i X -o X, also through a symlink) is read twice too,
# and --verify-amplitude runs in place. The pipe and in-place runs (tsfr and
# lrr, tsfr --verify-amplitude, tsfr through a symlink) give the bytes of the
# file runs, and so does --verify-amplitude on every method's file run. An
# output into a pipe (-o /dev/stdout) is written as given, and carries no
# status line: process into /dev/stdout piped into stats ds gives ds.csv.
# The cartesian fill of an output runs on every worker into a regular file
# and in order into a pipe: lrr and tsfr of the 10000x52 capture written
# through /dev/stdout into cat give the bytes of their file runs.
# Text outputs are renamed over their path too: process --report and
# stats ds rerun over their own earlier outputs give the bytes of copies
# taken before the rerun.
#
# The outputs depend only on the source tree, so two checkouts (a change
# and its parent, say) are compared by running the script in each and
# comparing the two OUT trees file by file with cmp; a file that only the
# newer script writes has nothing to be compared with.
set -euo pipefail

det=${1:?usage: tools/determinism_chain.sh OUT}
mkdir -p "$det"

pin=""  # a command that runs the CLI pinned to CPUs, for run d
csiphase() {
  PYTHONPATH=src $pin python -m csiphase "$@"
}

awk 'BEGIN { for (s = 0; s < 2000; s++) print (s % 3 ? "walk" : "sit, \"still\"") }' > "$det/labels.txt"
printf 'n_fft = 64\nsubcarriers = -26:-1\npaths = 0:1, 3:0.4+0.2j\ngain_drift_depth = 0.2\ngain_drift_period = 100\ndelta_t = -1:1\n' > "$det/scene.txt"
awk 'BEGIN { printf "n_fft = 256\nsubcarriers = -122"; for (m = -121; m <= 122; m++) if (m < -1 || m > 1) printf ", %d", m; print "" }' > "$det/vht80.txt"
printf 'n_fft = 512\n' > "$det/wide.txt"
printf 'n_fft = 128\n' > "$det/n128.txt"
for run in a b c d; do
  out="$det/$run"
  mkdir -p "$out"
  if [ "$run" = c ]; then export OPENBLAS_NUM_THREADS=1; fi
  if [ "$run" = d ]; then pin="taskset -c 0"; fi
  csiphase synth --symbols 2000 --subcarriers 52 --seed 7 -o "$out/cap"
  csiphase process -i "$out/cap.meas.csif" -o "$out/clean.csif" --method tsfr --report "$out/report.txt" --verify-amplitude
  csiphase process -i "$out/cap.meas.csif" -o "$out/sg2d.csif" --method lrr+sg2d --report "$out/sg2d.txt"
  csiphase process -i "$out/cap.meas.csif" -o "$out/sg2d_sep.csif" --method lrr+sg2d --separable --report "$out/sg2d_sep.txt"
  for method in raw lt lrr lrr+sgfreq lrr+sgtime; do
    csiphase process -i "$out/cap.meas.csif" -o "$out/$method.csif" --method "$method" --report "$out/$method.txt"
  done
  csiphase stats ds -i "$out/clean.csif" -o "$out/ds.csv"
  csiphase stats exceed -i "$out/cap.meas.csif" -o "$out/exceed.csv"
  cat "$out/cap.meas.csif" | csiphase process -i /dev/stdin -o "$out/clean.pipe.csif" --method tsfr --report "$out/report.pipe.txt"
  cat "$out/cap.meas.csif" | csiphase process -i /dev/stdin -o "$out/sg2d.pipe.csif" --method lrr+sg2d --report "$out/sg2d.pipe.txt"
  cat "$out/cap.meas.csif" | csiphase stats exceed -i /dev/stdin -o "$out/exceed.pipe.csv"
  cmp "$out/clean.pipe.csif" "$out/clean.csif"
  cmp "$out/report.pipe.txt" "$out/report.txt"
  cmp "$out/sg2d.pipe.csif" "$out/sg2d.csif"
  cmp "$out/sg2d.pipe.txt" "$out/sg2d.txt"
  cmp "$out/exceed.pipe.csv" "$out/exceed.csv"
  for method in raw lt lrr lrr+sgfreq lrr+sgtime; do
    cat "$out/cap.meas.csif" | csiphase process -i /dev/stdin -o "$out/$method.pipe.csif" --method "$method" --report "$out/$method.pipe.txt"
    cmp "$out/$method.pipe.csif" "$out/$method.csif"
    cmp "$out/$method.pipe.txt" "$out/$method.txt"
    csiphase process -i "$out/cap.meas.csif" -o "$out/$method.verify.csif" --method "$method" --report "$out/$method.verify.txt" --verify-amplitude
    cmp "$out/$method.verify.csif" "$out/$method.csif"
    cmp "$out/$method.verify.txt" "$out/$method.txt"
  done
  csiphase process -i "$out/cap.meas.csif" -o "$out/clean.plain.csif" --method tsfr --report "$out/report.plain.txt"
  csiphase process -i "$out/cap.meas.csif" -o "$out/sg2d.verify.csif" --method lrr+sg2d --report "$out/sg2d.verify.txt" --verify-amplitude
  csiphase process -i "$out/cap.meas.csif" -o "$out/sg2d_sep.verify.csif" --method lrr+sg2d --separable --report "$out/sg2d_sep.verify.txt" --verify-amplitude
  cmp "$out/clean.plain.csif" "$out/clean.csif"
  cmp "$out/report.plain.txt" "$out/report.txt"
  for name in sg2d sg2d_sep; do
    cmp "$out/$name.verify.csif" "$out/$name.csif"
    cmp "$out/$name.verify.txt" "$out/$name.txt"
  done
  cp "$out/cap.meas.csif" "$out/clean.inplace.csif"
  cp "$out/cap.meas.csif" "$out/lrr.inplace.csif"
  csiphase process -i "$out/clean.inplace.csif" -o "$out/clean.inplace.csif" --method tsfr --report "$out/report.inplace.txt"
  csiphase process -i "$out/lrr.inplace.csif" -o "$out/lrr.inplace.csif" --method lrr --report "$out/lrr.inplace.txt"
  cmp "$out/clean.inplace.csif" "$out/clean.csif"
  cmp "$out/report.inplace.txt" "$out/report.txt"
  cmp "$out/lrr.inplace.csif" "$out/lrr.csif"
  cmp "$out/lrr.inplace.txt" "$out/lrr.txt"
  cp "$out/cap.meas.csif" "$out/clean.inplace_verify.csif"
  csiphase process -i "$out/clean.inplace_verify.csif" -o "$out/clean.inplace_verify.csif" --method tsfr --report "$out/report.inplace_verify.txt" --verify-amplitude
  cmp "$out/clean.inplace_verify.csif" "$out/clean.csif"
  cmp "$out/report.inplace_verify.txt" "$out/report.txt"
  cp "$out/cap.meas.csif" "$out/clean.link_target.csif"
  ln -sf clean.link_target.csif "$out/clean.link.csif"
  csiphase process -i "$out/clean.link.csif" -o "$out/clean.link.csif" --method tsfr
  test -L "$out/clean.link.csif"
  cmp "$out/clean.link_target.csif" "$out/clean.csif"
  for name in clean.csif report.txt ds.csv; do cp "$out/$name" "$out/first.$name"; done
  csiphase process -i "$out/cap.meas.csif" -o "$out/clean.csif" --method tsfr --report "$out/report.txt"
  csiphase stats ds -i "$out/clean.csif" -o "$out/ds.csv"
  for name in clean.csif report.txt ds.csv; do cmp "$out/$name" "$out/first.$name"; done
  csiphase stats diffhist -i "$out/clean.csif" -o "$out/diffhist.csv"
  csiphase stats ds -i "$out/clean.csif" -o "$out/ds_labels.csv" --labels "$det/labels.txt"
  cat "$out/clean.csif" | csiphase stats ds -i /dev/stdin -o "$out/ds.pipe.csv"
  csiphase process -i "$out/cap.meas.csif" -o /dev/stdout --method tsfr | csiphase stats ds -i /dev/stdin -o "$out/ds.stdout.csv"
  cmp "$out/ds.stdout.csv" "$out/ds.csv"
  cat "$out/clean.csif" | csiphase stats ds -i /dev/stdin -o "$out/ds_labels.pipe.csv" --labels "$det/labels.txt"
  cat "$out/clean.csif" | csiphase stats diffhist -i /dev/stdin -o "$out/diffhist.pipe.csv"
  for table in ds ds_labels diffhist; do
    cmp "$out/$table.pipe.csv" "$out/$table.csv"
  done
  csiphase synth --spec "$det/scene.txt" --symbols 500 --seed 3 -o "$out/scene"
  csiphase synth --spec "$det/scene.txt" --symbols 2521 --seed 5 -o "$out/scene2521"
  csiphase synth --symbols 1000 --subcarriers 52 --seed 13 -o "$out/one"
  csiphase process -i "$out/one.meas.csif" -o "$out/one.sgtime.csif" --method lrr+sgtime --report "$out/one.sgtime.txt"
  csiphase process -i "$out/one.meas.csif" -o "$out/one.tsfr.csif" --method tsfr --report "$out/one.tsfr.txt"
  csiphase process -i "$out/one.meas.csif" -o "$out/one.sg2d.csif" --method lrr+sg2d --report "$out/one.sg2d.txt"
  csiphase process -i "$out/one.meas.csif" -o "$out/one.sg2d_sep.csif" --method lrr+sg2d --separable --report "$out/one.sg2d_sep.txt"
  csiphase synth --symbols 10000 --subcarriers 52 --seed 11 -o "$out/long"
  for method in tsfr lrr+sg2d lrr+sgfreq lrr+sgtime; do
    csiphase process -i "$out/long.meas.csif" -o "$out/long.$method.csif" --method "$method" --report "$out/long.$method.txt"
  done
  csiphase process -i "$out/long.meas.csif" -o "$out/long.lrr.csif" --method lrr
  for method in lrr tsfr; do
    csiphase process -i "$out/long.meas.csif" -o /dev/stdout --method "$method" | cat > "$out/long.$method.pipe.csif"
    cmp "$out/long.$method.pipe.csif" "$out/long.$method.csif"
  done
  csiphase synth --spec "$det/vht80.txt" --symbols 2500 --seed 9 -o "$out/vht80"
  for method in lrr lrr+sgfreq lrr+sgtime lrr+sg2d tsfr; do
    csiphase process -i "$out/vht80.meas.csif" -o "$out/vht80.$method.csif" --method "$method" --report "$out/vht80.$method.txt"
  done
  csiphase synth --spec "$det/n128.txt" --symbols 3000 --subcarriers 52 --seed 7 -o "$out/n128"
  csiphase process -i "$out/n128.meas.csif" -o "$out/n128.tsfr.csif" --method tsfr --report "$out/n128.tsfr.txt"
  csiphase stats exceed -i "$out/n128.meas.csif" -o "$out/n128.exceed.csv"
  csiphase synth --symbols 40000 --subcarriers 8 --seed 15 -o "$out/narrow"
  for method in tsfr lrr+sgtime; do
    csiphase process -i "$out/narrow.meas.csif" -o "$out/narrow.$method.csif" --method "$method" --report "$out/narrow.$method.txt"
  done
  csiphase synth --spec "$det/wide.txt" --symbols 4000 --subcarriers 256 --seed 9 -o "$out/wide"
  csiphase process -i "$out/wide.meas.csif" -o "$out/wide.sg2d.csif" --method lrr+sg2d --report "$out/wide.sg2d.txt"
  csiphase process -i "$out/wide.meas.csif" -o "$out/wide.sg2d_sep.csif" --method lrr+sg2d --separable --report "$out/wide.sg2d_sep.txt"
done
for f in "$det"/a/*; do
  for run in b c d; do cmp "$f" "$det/$run/$(basename "$f")"; done
done
