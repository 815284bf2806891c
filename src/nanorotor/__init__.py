"""Interferometric alignment control of levitated symmetric nanorotors.

Simulation library for orientational quantum revivals of prolate nanorotors:
aligned rotational wave packets, free spectral evolution through fractional
revivals, a phase pulse at an eighth of the revival time steering the state
between alignment and antialignment, and realistic imperfections (angular
spread, intrinsic spin, shape asymmetry, collisional decoherence).
"""

__version__ = "0.1.0"

from . import angular, decoherence, eightstate, observables, pulse, rotor
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
