"""Workbench for score, a small reversible imperative language.

score programs manipulate integer variables that carry a history stack and
a repair counter.  The package provides the abstract syntax and structural
inverter, a parser and pretty-printer, three big-step evaluators (naive,
assert-based, total reversible), and a property-testing harness that
checks the reversibility guarantees by exhaustive enumeration and random
generation.

Each module's `__all__` is the one list of its public names; the package
re-exports them all.
"""

from . import harness, parser, semantics, state, syntax
from .harness import *
from .parser import *
from .semantics import *
from .state import *
from .syntax import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += syntax.__all__
__all__ += parser.__all__
__all__ += state.__all__
__all__ += semantics.__all__
__all__ += harness.__all__
