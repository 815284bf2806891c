"""Interferometric alignment control of levitated symmetric nanorotors.

Simulation library for orientational quantum revivals of prolate nanorotors:
aligned rotational wave packets, free spectral evolution through fractional
revivals, a phase pulse at an eighth of the revival time steering the state
between alignment and antialignment, and realistic imperfections (angular
spread, intrinsic spin, shape asymmetry, collisional decoherence).
"""

import os
import sys

# A run is single-threaded, yet numpy's OpenBLAS starts a spinning worker for each further
# core as it loads. The variable only counts before numpy loads; a caller's own setting wins.
_BLAS_THREAD_VARS = {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}
if "numpy" not in sys.modules and not _BLAS_THREAD_VARS & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"

# eightstate, the paper's packet model, is left to load on first use: no CLI run reaches it.
from . import angular, decoherence, observables, pulse, rotor
from .angular import AngularGrid, BandedOperator
from .observables import TimeSeries, alignment
from .pulse import PulseSpec
from .rotor import InertiaModel, Mixture, RotorState, SpectrumModel

__all__ = [
    "__version__",
    "angular", "rotor", "pulse", "eightstate", "decoherence", "observables",
    "AngularGrid", "BandedOperator", "InertiaModel", "Mixture", "RotorState",
    "SpectrumModel", "PulseSpec", "TimeSeries", "alignment",
]
