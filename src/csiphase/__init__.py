"""Phase calibration, smoothing and reconstruction for OFDM channel state information."""

# The package re-exports the __all__ of each module below (io and cli stay
# submodules) and adds only its version. csiphase.tsfr is the function,
# bound by the last wildcard import, not the module.
from . import calib, core, savgol, stats, synth, tsfr as _tsfr
from .calib import *  # noqa: F403
from .core import *  # noqa: F403
from .savgol import *  # noqa: F403
from .stats import *  # noqa: F403
from .synth import *  # noqa: F403
from .tsfr import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *calib.__all__,
    *core.__all__,
    *savgol.__all__,
    *stats.__all__,
    *synth.__all__,
    *_tsfr.__all__,
    "__version__",
]
