"""sliceguard: certified sliceness obstructions for integer linear
combinations of iterated torus knots with a common prime-power cabling
parameter.

The cyclotomic and Laurent arithmetic (``cyclo`` and ``laurent``) serves
only the twisted polynomials and the inspection commands, so their names
here are resolved on first access, and a verdict never loads them."""

from .knots import (
    IteratedTorusKnot,
    KnotCombination,
    RootOfUnity,
    TorusKnotSum,
    algebraically_slice,
    in_sp,
    normal_form,
    s_level,
    simplify,
)
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

# name -> the module that defines it, imported when the name is first read
_ON_USE = {
    "Cyclo": "cyclo",
    "normalize_root": "cyclo",
    "LaurentPoly": "laurent",
    "RationalFn": "laurent",
    "unit_circle_roots": "laurent",
}


def __getattr__(name):
    if name not in _ON_USE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{_ON_USE[name]}"), name)


def __dir__():
    return sorted({*globals(), *_ON_USE})
