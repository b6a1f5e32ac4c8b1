#!/usr/bin/env bash
# Cross-process determinism of the CLI chain.
#
# Usage, from the root of a checkout: tools/determinism_chain.sh OUT
#
# The benchmark compares repetitions inside one process; this runs the
# chain in fresh processes three times, into OUT/a, OUT/b and OUT/c, and
# requires identical bytes: a and b with the default OpenBLAS
# threads, c with one thread. Every stage sums along one row or one track,
# never through BLAS, so the thread count changes no byte. The shapes where
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
# lrr+sgtime. The input is opened once, and process reads it itself for
# every method, so each of the seven methods and every stats table (ds,
# with and without labels, exceed and diffhist) read a capture piped into
# /dev/stdin as they read its file, to the byte.
#
# The outputs depend only on the source tree, so two checkouts (a change
# and its parent, say) are compared by running the script in each and
# comparing the two OUT trees file by file with cmp.
set -euo pipefail

det=${1:?usage: tools/determinism_chain.sh OUT}
mkdir -p "$det"

csiphase() {
  PYTHONPATH=src python -m csiphase "$@"
}

awk 'BEGIN { for (s = 0; s < 2000; s++) print (s % 3 ? "walk" : "sit, \"still\"") }' > "$det/labels.txt"
printf 'n_fft = 64\nsubcarriers = -26:-1\npaths = 0:1, 3:0.4+0.2j\ngain_drift_depth = 0.2\ngain_drift_period = 100\ndelta_t = -1:1\n' > "$det/scene.txt"
awk 'BEGIN { printf "n_fft = 256\nsubcarriers = -122"; for (m = -121; m <= 122; m++) if (m < -1 || m > 1) printf ", %d", m; print "" }' > "$det/vht80.txt"
printf 'n_fft = 512\n' > "$det/wide.txt"
printf 'n_fft = 128\n' > "$det/n128.txt"
for run in a b c; do
  out="$det/$run"
  mkdir -p "$out"
  if [ "$run" = c ]; then export OPENBLAS_NUM_THREADS=1; fi
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
  done
  csiphase stats diffhist -i "$out/clean.csif" -o "$out/diffhist.csv"
  csiphase stats ds -i "$out/clean.csif" -o "$out/ds_labels.csv" --labels "$det/labels.txt"
  cat "$out/clean.csif" | csiphase stats ds -i /dev/stdin -o "$out/ds.pipe.csv"
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
for f in "$det"/a/*; do cmp "$f" "$det/b/$(basename "$f")"; cmp "$f" "$det/c/$(basename "$f")"; done
