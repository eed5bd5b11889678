"""Random assignment with logarithmic channel costs.

Cost matrices carry entries log(1 + g*f) with random gains g and unit
exponential fades f.  The package solves sampled instances exactly, predicts
the expected optimum through the reciprocal-gain transform of the gain law,
and ships a Monte Carlo harness that compares the two at scale.

Each module's ``__all__`` is re-exported here, and the package's is their
union.
"""

from . import experiment, gains, matching, quantile
from .experiment import *
from .gains import *
from .matching import *
from .quantile import *

__version__ = "0.1.0"

__all__ = [*experiment.__all__, *gains.__all__, *matching.__all__, *quantile.__all__]
