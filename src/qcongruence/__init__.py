"""qcongruence: exact verification of q-congruences for truncated basic
hypergeometric sums, and of the hypergeometric identities behind them.

All arithmetic is exact, over dense integer polynomials in q.  A sum stays
factored, a numerator over (q^a - 1) factors (``FactoredFraction``), and
congruences modulo cyclotomic powers are decided by exact valuations.

The package's public names are its modules' ``__all__``, re-exported.
"""

from . import congruence, exactalg, hypergeom, qobjects
from .exactalg import *
from .qobjects import *
from .hypergeom import *
from .congruence import *

__version__ = "0.1.0"

__all__ = exactalg.__all__ + qobjects.__all__ + hypergeom.__all__ + congruence.__all__
