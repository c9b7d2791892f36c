"""Bilevel sweeping-process control for disk-confined crowd groups."""

from .dynamics import (
    IntervalSet,
    ScaledLinearDrift,
    Scenario,
    SegmentSet,
    integrate_lower_catchup,
    integrate_upper,
)
from .bilevel import closed_form_controls, solve_twodisk_parametric

__version__ = "0.1.0"
