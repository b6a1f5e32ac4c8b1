"""Forward channel model and phase-impairment injection."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from csiphase.calib import lrr_calibrate, lt_calibrate
from csiphase.core import PhaseMatrix, Stage, SubcarrierMap, decompose, recompose
from csiphase.synth import (
    ChannelSpec,
    ImpairmentSpec,
    apply_impairments,
    demo_channel,
    demo_impairments,
    gen_dataset,
    gen_true_csi,
    load_scenario,
)


def wrap(x):
    x = np.asarray(x, dtype=float)
    return x - 2 * np.pi * np.ceil((x - np.pi) / (2 * np.pi))


def no_op_impairments(symbols, smap, **overrides):
    kwargs = dict(
        delta_t=np.zeros(symbols),
        gamma=np.zeros(symbols),
        noise_sigma=0.0,
        seed=0,
        smap=smap,
    )
    kwargs.update(overrides)
    return ImpairmentSpec(**kwargs)


# ---------------------------------------------------------------------------
# specs


def test_channel_spec_validation():
    with pytest.raises(ValueError, match="at least one path"):
        ChannelSpec(paths=())
    with pytest.raises(ValueError, match="non-negative"):
        ChannelSpec(paths=((-1.0, 1.0),))
    with pytest.raises(ValueError, match="finite"):
        ChannelSpec(paths=((0.0, complex(np.inf, 0)),))
    with pytest.raises(ValueError, match="drift_depth"):
        ChannelSpec(paths=((0.0, 1.0),), drift_depth=1.5, drift_period=10)
    with pytest.raises(ValueError, match="drift_period"):
        ChannelSpec(paths=((0.0, 1.0),), drift_depth=0.5)


def test_impairment_spec_validation():
    smap = SubcarrierMap.contiguous(4)
    with pytest.raises(ValueError, match="equally long"):
        no_op_impairments(3, smap, gamma=np.zeros(4))
    with pytest.raises(ValueError, match="finite"):
        no_op_impairments(3, smap, delta_t=np.array([0.0, np.nan, 0.0]))
    with pytest.raises(ValueError, match="noise_sigma"):
        no_op_impairments(3, smap, noise_sigma=-0.1)
    with pytest.raises(ValueError, match="seed"):
        no_op_impairments(3, smap, seed=-1)
    spec = no_op_impairments(3, smap)
    assert spec.symbols == 3
    with pytest.raises(ValueError):
        spec.delta_t[0] = 1.0


# ---------------------------------------------------------------------------
# clean channel responses


def test_flat_channel_is_all_ones():
    csi = gen_true_csi(ChannelSpec(paths=((0.0, 1.0),)), 3, SubcarrierMap.contiguous(5))
    assert_array_equal(csi.values, np.ones((3, 5), dtype=complex))


def test_single_delay_gives_linear_phase_and_unit_amplitude():
    smap = SubcarrierMap.contiguous(13, n_fft=64)
    csi = gen_true_csi(ChannelSpec(paths=((3.0, 1.0),)), 2, smap)
    amp, phase = decompose(csi)
    assert_allclose(amp.values, 1.0, atol=1e-12)
    expected = wrap(-2 * np.pi * smap.m * 3.0 / 64)
    assert_allclose(phase.values, np.tile(expected, (2, 1)), atol=1e-12)


def test_two_equal_paths_half_grid_apart_alternate_null_and_double():
    # 1 + exp(-j pi k) is 0 on odd k and 2 on even k.
    smap = SubcarrierMap.contiguous(8, n_fft=64)
    csi = gen_true_csi(ChannelSpec(paths=((0.0, 1.0), (32.0, 1.0))), 1, smap)
    assert_allclose(np.abs(csi.values[0]), [0, 2, 0, 2, 0, 2, 0, 2], atol=1e-12)


def test_static_channel_rows_are_identical():
    csi = gen_true_csi(demo_channel(), 50, SubcarrierMap.contiguous(52, n_fft=64))
    assert_array_equal(csi.values, np.tile(csi.values[:1], (50, 1)))


def test_static_channel_rows_are_the_tiled_response_in_memory_the_matrix_owns():
    smap = SubcarrierMap(np.concatenate([np.arange(-28, 0, 2), np.arange(2, 30, 2)]), 64)
    channel = demo_channel()
    csi = gen_true_csi(channel, 37, smap)
    base = np.exp(-2j * np.pi * np.outer(channel.delays, smap.m) / smap.n_fft)
    assert csi.values.tobytes() == np.tile(channel.gains @ base, (37, 1)).tobytes()
    assert csi.values.flags.owndata  # handed over, not copied from a view


def test_gain_drift_follows_the_documented_sinusoid():
    spec = ChannelSpec(paths=((0.0, 2.0),), drift_depth=0.5, drift_period=8.0)
    csi = gen_true_csi(spec, 16, SubcarrierMap.contiguous(4))
    s = np.arange(16.0)
    expected = 2.0 * (1 + 0.5 * np.sin(2 * np.pi * s / 8.0))
    assert_allclose(np.abs(csi.values), np.tile(expected[:, None], (1, 4)), atol=1e-12)
    again = gen_true_csi(spec, 16, SubcarrierMap.contiguous(4))
    assert_array_equal(csi.values, again.values)


def test_drifting_rows_differ():
    spec = ChannelSpec(
        paths=((0.0, 1.0), (2.0, 0.4j)), drift_depth=0.3, drift_period=100.0
    )
    csi = gen_true_csi(spec, 60, SubcarrierMap.contiguous(16, n_fft=64))
    assert np.max(np.abs(csi.values[0] - csi.values[25])) > 1e-3


def test_gen_true_csi_rejects_bad_arguments():
    smap = SubcarrierMap.contiguous(8, n_fft=64)
    with pytest.raises(ValueError, match="at least one symbol"):
        gen_true_csi(demo_channel(), 0, smap)
    with pytest.raises(ValueError, match="below the DFT size"):
        gen_true_csi(ChannelSpec(paths=((64.0, 1.0),)), 2, smap)


def test_demo_channel_has_no_amplitude_nulls():
    csi = gen_true_csi(demo_channel(), 1, SubcarrierMap.contiguous(52, n_fft=64))
    assert np.abs(csi.values).min() > 0.5


# ---------------------------------------------------------------------------
# impairment injection


def test_no_impairments_is_an_exact_no_op():
    rng = np.random.default_rng(1)
    smap = SubcarrierMap.contiguous(12, n_fft=64)
    true_csi = gen_true_csi(demo_channel(), 6, smap)
    out = apply_impairments(true_csi, no_op_impairments(6, smap))
    # The measured matrix is rebuilt from polar parts, so compare those
    # exactly and the cartesian values to strict tolerance.
    amp_t, phase_t = decompose(true_csi)
    amp_m, phase_m = decompose(out.measured_csi)
    assert_array_equal(amp_m.values, amp_t.values)
    assert_array_equal(phase_m.values, phase_t.values)
    assert_allclose(out.measured_csi.values, true_csi.values, rtol=1e-15, atol=1e-15)


def test_timing_lag_adds_the_documented_linear_tilt():
    # Flat channel, one-sample lag on every symbol: measured phase at
    # physical index m is exactly 2 pi m / 64 (wrapped).
    smap = SubcarrierMap.contiguous(52, n_fft=64)
    true_csi = gen_true_csi(ChannelSpec(paths=((0.0, 1.0),)), 4, smap)
    imp = no_op_impairments(4, smap, delta_t=np.ones(4))
    out = apply_impairments(true_csi, imp)
    _, phase = decompose(out.measured_csi)
    expected = wrap(2 * np.pi * smap.m / 64)
    assert_allclose(phase.values, np.tile(expected, (4, 1)), atol=1e-12)


def test_carrier_offset_shifts_every_phase_in_the_symbol():
    smap = SubcarrierMap.contiguous(16, n_fft=64)
    true_csi = gen_true_csi(demo_channel(), 3, smap)
    imp = no_op_impairments(3, smap, gamma=np.full(3, np.pi / 3))
    out = apply_impairments(true_csi, imp)
    _, phase_t = decompose(true_csi)
    _, phase_m = decompose(out.measured_csi)
    assert_allclose(phase_m.values, wrap(phase_t.values + np.pi / 3), atol=1e-12)


def test_injection_is_phase_only_amplitude_is_bit_identical():
    smap = SubcarrierMap.contiguous(52, n_fft=64)
    true_csi = gen_true_csi(demo_channel(), 200, smap)
    imp = demo_impairments(200, smap, seed=3, noise_sigma=0.3)
    out = apply_impairments(true_csi, imp)
    amp_t, _ = decompose(true_csi)
    amp_m, _ = decompose(out.measured_csi)
    assert_array_equal(amp_m.values, amp_t.values)


@pytest.mark.parametrize("noise_sigma", [0.0, 0.3])
def test_injection_matches_its_expression_bitwise(noise_sigma):
    # The measured phase is summed in one buffer; this is the expression it
    # replaced, evaluated on fresh temporaries.
    smap = SubcarrierMap(np.concatenate([np.arange(-26, 0), np.arange(1, 27)]), 64)
    true_csi = gen_true_csi(ChannelSpec(((0.0, 1.0), (3.0, -0.5j))), 300, smap)
    imp = demo_impairments(300, smap, seed=9, noise_sigma=noise_sigma)
    out = apply_impairments(true_csi, imp)
    amplitude, phase = decompose(true_csi)
    tilt = (2 * np.pi / imp.smap.n_fft) * np.outer(imp.delta_t, imp.smap.m)
    measured = phase.values + tilt + imp.gamma[:, None]
    if noise_sigma > 0:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(imp.seed)))
        measured = measured + rng.normal(0.0, imp.noise_sigma, size=measured.shape)
    assert out.measured_csi._angles.tobytes() == measured.tobytes()
    expected = recompose(amplitude, PhaseMatrix(measured, Stage.RAW))
    got_amp, got_phase = decompose(out.measured_csi)
    want_amp, want_phase = decompose(expected)
    assert got_amp.values.tobytes() == want_amp.values.tobytes()
    assert got_phase.values.tobytes() == want_phase.values.tobytes()
    assert out.measured_csi.values.tobytes() == expected.values.tobytes()


def test_noise_matches_its_nominal_level():
    smap = SubcarrierMap.contiguous(52, n_fft=64)
    true_csi = gen_true_csi(ChannelSpec(paths=((0.0, 1.0),)), 2000, smap)
    imp = no_op_impairments(2000, smap, noise_sigma=0.2, seed=11)
    out = apply_impairments(true_csi, imp)
    _, phase = decompose(out.measured_csi)
    assert abs(phase.values.std() - 0.2) < 0.006
    assert abs(phase.values.mean()) < 0.005


def test_noise_is_deterministic_per_seed():
    smap = SubcarrierMap.contiguous(8, n_fft=64)
    true_csi = gen_true_csi(demo_channel(), 20, smap)
    imp = no_op_impairments(20, smap, noise_sigma=0.1, seed=5)
    a = apply_impairments(true_csi, imp)
    b = apply_impairments(true_csi, imp)
    assert_array_equal(a.measured_csi.values, b.measured_csi.values)
    other = no_op_impairments(20, smap, noise_sigma=0.1, seed=6)
    c = apply_impairments(true_csi, other)
    assert np.max(np.abs(c.measured_csi.values - a.measured_csi.values)) > 1e-6


def test_apply_impairments_rejects_mismatched_shapes():
    smap = SubcarrierMap.contiguous(8, n_fft=64)
    true_csi = gen_true_csi(demo_channel(), 5, smap)
    with pytest.raises(ValueError, match="symbols"):
        apply_impairments(true_csi, no_op_impairments(4, smap))
    with pytest.raises(ValueError, match="does not match"):
        apply_impairments(true_csi, no_op_impairments(5, SubcarrierMap.contiguous(6)))


# ---------------------------------------------------------------------------
# recovery of the injected errors by the calibration routes


def recovery_fixture(seed, symbols=80):
    smap = SubcarrierMap.contiguous(52, n_fft=64)
    rng = np.random.default_rng(seed)
    imp = no_op_impairments(
        symbols,
        smap,
        delta_t=rng.uniform(-2, 2, symbols),
        gamma=rng.uniform(-np.pi, np.pi, symbols),
    )
    true_csi = gen_true_csi(demo_channel(), symbols, smap)
    return smap, true_csi, apply_impairments(true_csi, imp), imp


def test_lt_sees_exactly_the_injected_tilt():
    # Calibrating measured and true and subtracting isolates the tilt
    # as a per-symbol constant: -(2 pi delta_t / N) * mean(m).
    smap, true_csi, out, imp = recovery_fixture(seed=21)
    _, raw_t = decompose(true_csi)
    _, raw_m = decompose(out.measured_csi)
    diff = lt_calibrate(raw_m, smap).values - lt_calibrate(raw_t, smap).values
    expected = -(2 * np.pi * imp.delta_t / 64) * smap.m.mean()
    assert_allclose(diff, np.tile(expected[:, None], (1, 52)), atol=1e-9)


def test_lrr_outputs_correlate_across_the_injection():
    smap, true_csi, out, _ = recovery_fixture(seed=22)
    _, raw_t = decompose(true_csi)
    _, raw_m = decompose(out.measured_csi)
    san_t = lrr_calibrate(raw_t).values
    san_m = lrr_calibrate(raw_m).values
    for s in range(san_t.shape[0]):
        r = np.corrcoef(san_m[s], san_t[s])[0, 1]
        assert r >= 0.999


# ---------------------------------------------------------------------------
# dataset generation


def test_gen_dataset_echoes_specs_and_writes_files(tmp_path):
    smap = SubcarrierMap.contiguous(16, n_fft=64)
    channel = demo_channel()
    imp = demo_impairments(30, smap, seed=9)
    out = gen_dataset(channel, imp, 30)
    assert out.channel is channel
    assert out.impairment is imp
    assert out.true_csi.shape == (30, 16)
    # Written straight to the files, the pair is not also returned.
    assert gen_dataset(channel, imp, 30, out=tmp_path / "demo") is None
    assert (tmp_path / "demo.true.csif").exists()
    assert (tmp_path / "demo.meas.csif").exists()


def test_gen_dataset_same_seed_gives_byte_identical_files(tmp_path):
    smap = SubcarrierMap.contiguous(12, n_fft=64)
    channel = demo_channel()
    for name in ("one", "two"):
        gen_dataset(channel, demo_impairments(25, smap, seed=4), 25, out=tmp_path / name)
    assert (tmp_path / "one.true.csif").read_bytes() == (tmp_path / "two.true.csif").read_bytes()
    assert (tmp_path / "one.meas.csif").read_bytes() == (tmp_path / "two.meas.csif").read_bytes()


def test_gen_dataset_different_seeds_differ_when_noisy(tmp_path):
    smap = SubcarrierMap.contiguous(12, n_fft=64)
    channel = demo_channel()
    a = gen_dataset(channel, demo_impairments(25, smap, seed=4), 25)
    b = gen_dataset(channel, demo_impairments(25, smap, seed=5), 25)
    assert np.max(np.abs(a.measured_csi.values - b.measured_csi.values)) > 1e-6


def test_demo_impairments_are_reproducible_and_in_range():
    imp = demo_impairments(1000, seed=7)
    again = demo_impairments(1000, seed=7)
    assert_array_equal(imp.delta_t, again.delta_t)
    assert_array_equal(imp.gamma, again.gamma)
    assert imp.seed == again.seed
    assert np.all(np.abs(imp.delta_t) <= 2.0)
    assert np.all(np.abs(imp.gamma) <= np.pi)
    assert len(imp.smap) == 52
    assert imp.smap.n_fft == 64
    assert demo_impairments(10, seed=8).seed != imp.seed


@pytest.mark.parametrize(
    "text,check",
    [
        ("delta_t = -1.5:0.5\n",
         lambda imp: (-1.5 <= imp.delta_t.min() < -1.0) and (0.0 < imp.delta_t.max() < 0.5)),
        ("subcarriers = -3, -1, 2, 5\n", lambda imp: imp.smap.m.tolist() == [-3, -1, 2, 5]),
        ("delta_t = 2:1\n", r"^s\.txt line 1: delta_t: range '2:1' has its endpoints reversed$"),
        ("gamma = 0:1:2\n", r"^s\.txt line 1: gamma: expected a constant or low:high, got '0:1:2'$"),
        ("n_fft = 64\nnoise_sigma 0.1\n", r"^s\.txt line 2: expected 'key = value'"),
        ("gamma = 0\n# again\ngamma = 1\n", r"^s\.txt line 3: duplicate key 'gamma'$"),
    ],
    ids=["range", "comma-list", "reversed-range", "three-part-range", "no-equals", "duplicate"],
)
def test_scenario_ranges_lists_and_line_errors(tmp_path, text, check):
    path = tmp_path / "s.txt"
    path.write_text(text)
    if isinstance(check, str):
        with pytest.raises(ValueError, match=check):
            load_scenario(path, seed=4, symbols=400)
    else:
        _, imp = load_scenario(path, seed=4, symbols=400)
        assert check(imp)


@pytest.mark.parametrize("seed,symbols", [(0, 50), (7, 1000)])
def test_empty_scenario_is_the_demo(seed, symbols):
    channel, imp = load_scenario(None, seed=seed, symbols=symbols, subcarriers=52)
    demo = demo_impairments(symbols, SubcarrierMap.contiguous(52, n_fft=64), seed=seed)
    assert channel == demo_channel()
    assert imp.delta_t.tobytes() == demo.delta_t.tobytes()
    assert imp.gamma.tobytes() == demo.gamma.tobytes()
    assert imp.seed == demo.seed
    assert imp.noise_sigma == demo.noise_sigma
    assert_array_equal(imp.smap.m, demo.smap.m)
    assert imp.smap.n_fft == demo.smap.n_fft
