"""Every output bit depends only on its own symbol row or subcarrier track.

A row-local stage (``lt_calibrate``, ``lrr_calibrate``, ``sg_freq``, and
the rebuild given its thresholds) run on rows a:b of a matrix gives, bit
for bit, rows a:b of the stage run on the whole matrix; a track-local
stage (``sg_time``) does the same on a column slice. A product whose
rounding follows the shape of the call (a BLAS gemv or gemm, whose
blocking also follows the thread count) breaks this at these shapes,
where the stages run in several row blocks.
"""

import numpy as np
import pytest

from csiphase.calib import lrr_calibrate, lt_calibrate
from csiphase.core import PhaseMatrix, Stage, SubcarrierMap
from csiphase.savgol import sg_freq, sg_time
from csiphase.tsfr import _rebuild, _unwrapped_gap_stats

ROW_SLICES = [(100, None), (1, 4099), (2345, 2352), (3, 4)]
COLUMN_SLICES = [(3, 10), (0, 2), (17, 45)]


@pytest.fixture(scope="module", params=[(10000, 52), (3000, 256)], ids=lambda p: "%dx%d" % p)
def raw(request):
    s, k = request.param
    rng = np.random.default_rng(s + k)
    return rng.uniform(-np.pi, np.pi, (s, k))


def assert_same_bytes(part, whole):
    assert part.shape == whole.shape
    assert part.tobytes() == np.ascontiguousarray(whole).tobytes()


@pytest.mark.parametrize("a, b", ROW_SLICES)
def test_lrr_calibrate_of_a_row_slice_is_that_slice_of_the_whole(raw, a, b):
    whole = lrr_calibrate(PhaseMatrix(raw, Stage.RAW)).values
    part = lrr_calibrate(PhaseMatrix(raw[a:b], Stage.RAW)).values
    assert_same_bytes(part, whole[a:b])


@pytest.mark.parametrize("a, b", ROW_SLICES)
def test_sg_freq_of_a_row_slice_is_that_slice_of_the_whole(raw, a, b):
    calibrated = lrr_calibrate(PhaseMatrix(raw, Stage.RAW)).values
    whole = sg_freq(PhaseMatrix(calibrated, Stage.CALIBRATED)).values
    part = sg_freq(PhaseMatrix(calibrated[a:b], Stage.CALIBRATED)).values
    assert_same_bytes(part, whole[a:b])


@pytest.mark.parametrize("a, b", COLUMN_SLICES)
def test_sg_time_of_a_column_slice_is_that_slice_of_the_whole(raw, a, b):
    calibrated = lrr_calibrate(PhaseMatrix(raw, Stage.RAW)).values
    whole = sg_time(PhaseMatrix(calibrated, Stage.CALIBRATED)).values
    part = sg_time(PhaseMatrix(calibrated[:, a:b], Stage.CALIBRATED)).values
    assert_same_bytes(part, whole[:, a:b])


def lt_calibrated(raw, rows):
    """``lt_calibrate`` of rows ``rows``, over a map with uneven steps."""
    k = raw.shape[1]
    smap = SubcarrierMap(np.arange(k) + np.arange(k) // 5, n_fft=2 * k)
    return (lt_calibrate(PhaseMatrix(raw[rows], Stage.RAW), smap).values,)


def rebuilt(raw, rows):
    """The rebuild of rows ``rows`` of the time-smoothed calibrated phase,
    given their thresholds: the rebuilt rows and the report's rows."""
    calibrated = lrr_calibrate(PhaseMatrix(raw, Stage.RAW))
    mu, sigma, d = _unwrapped_gap_stats(calibrated.values)
    phi = sg_time(calibrated).values[rows].copy()
    report = _rebuild(phi, mu[rows], sigma[rows], d[rows])
    assert report.exceedance.any()  # the walk clamps somewhere
    return (phi, report.exceedance, report.clamped_down, report.clamped_up,
            report.modified_fraction)


ROW_KERNELS = {"lt_calibrate": lt_calibrated, "rebuild": rebuilt}


@pytest.mark.parametrize("a, b", ROW_SLICES)
@pytest.mark.parametrize("kernel", ROW_KERNELS)
def test_row_local_kernel_of_a_row_slice_is_that_slice_of_the_whole(raw, kernel, a, b):
    whole = ROW_KERNELS[kernel](raw, slice(None))
    part = ROW_KERNELS[kernel](raw, slice(a, b))
    for got, want in zip(part, whole, strict=True):
        assert_same_bytes(got, want[a:b])
