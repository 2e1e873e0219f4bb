"""Anderson acceleration for nonsmooth fixed-point optimization algorithms.

The package exposes every name in each public module's ``__all__``.
"""

from .algorithms import *
from .anderson import *
from .harness import *
from .linalg import *
from .manifold import *
from .problems import *
from .prox import *

__version__ = "0.1.0"
