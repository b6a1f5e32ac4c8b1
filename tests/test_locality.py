"""Every output bit depends only on its own symbol row or subcarrier track.

A row-local stage (``lrr_calibrate``, ``sg_freq``) run on rows a:b of a
matrix gives, bit for bit, rows a:b of the stage run on the whole
matrix; a track-local stage (``sg_time``) does the same on a column
slice. A product whose rounding follows the shape of the call (a BLAS
gemv or gemm, whose blocking also follows the thread count) breaks this
at these shapes, where the stages run in several row blocks.
"""

import numpy as np
import pytest

from csiphase.calib import lrr_calibrate
from csiphase.core import PhaseMatrix, Stage
from csiphase.savgol import sg_freq, sg_time

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
