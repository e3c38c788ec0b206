"""sliceguard: certified sliceness obstructions for integer linear
combinations of iterated torus knots with a common prime-power cabling
parameter."""

from .cyclo import Cyclo, RootOfUnity, normalize_root
from .knots import (
    IteratedTorusKnot,
    KnotCombination,
    TorusKnotSum,
    algebraically_slice,
    in_sp,
    normal_form,
    s_level,
    simplify,
)
from .laurent import LaurentPoly, RationalFn, unit_circle_roots
from .expr import ParseError, parse
from .pipeline import Options, Verdict, obstruct, verify_verdict
from .twisted import twisted_alex_exterior, twisted_alex_surgery

__version__ = "0.1.0"

__all__ = [
    "Cyclo",
    "RootOfUnity",
    "normalize_root",
    "IteratedTorusKnot",
    "KnotCombination",
    "TorusKnotSum",
    "algebraically_slice",
    "in_sp",
    "normal_form",
    "s_level",
    "simplify",
    "LaurentPoly",
    "RationalFn",
    "unit_circle_roots",
    "ParseError",
    "parse",
    "Options",
    "Verdict",
    "obstruct",
    "verify_verdict",
    "twisted_alex_exterior",
    "twisted_alex_surgery",
    "__version__",
]
