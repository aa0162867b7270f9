"""F-pure thresholds, F-jumping numbers, and test ideals over prime fields.

The package computes prime-characteristic singularity invariants of
polynomials in F_p[x_1..x_n] with exact rational arithmetic throughout:

* base-p candidate machinery (exponent pairs, candidate sets),
* sparse polynomial and Groebner arithmetic over F_p,
* Frobenius-root ideals with a digit recursion for huge exponents,
* test ideals, jumping numbers, F-pure thresholds, F-thresholds,
* perturbation-constancy harnesses for isolated singularities.

A query builds one TestIdealComputer(f, bound) and asks it every question:
ideal_at, grid_ideal, left_limit_at, certified, is_jump, fpt and f_threshold
share its root engine, whose closed automaton f_threshold reads with no
bound; the nu invariants are FrobeniusRootEngine(f).nu(b, e).
"""

from . import basep, constancy, errors, froot, groebner, parsing, poly, testideal
from .basep import *
from .constancy import *
from .errors import *
from .froot import *
from .groebner import *
from .parsing import *
from .poly import *
from .testideal import *

__version__ = "0.1.0"

# each module's __all__ is its public surface; the package re-exports exactly those names
__all__ = [
    name
    for module in (basep, constancy, errors, froot, groebner, parsing, poly, testideal)
    for name in module.__all__
]
