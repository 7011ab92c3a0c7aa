"""Exact-arithmetic engine for optimal mock Jacobi theta functions.

Subpackages / modules:

* :mod:`mjtheta.cyclo`     -- rational scalars, and the values x + y G_D
                              of Q(sqrt D) that Borcherds products take
* :mod:`mjtheta.series`    -- truncated q-series with justified windows
* :mod:`mjtheta.eta`       -- eta quotients, Fricke involution, dlog
* :mod:`mjtheta.jacobi`    -- coefficient tables, theta kernels, the lift
* :mod:`mjtheta.catalog`   -- the lambency catalog and reference tables
* :mod:`mjtheta.mocktheta` -- Eulerian series and classical identities
* :mod:`mjtheta.borcherds` -- genus characters, Heegner divisors, products
* :mod:`mjtheta.cli`       -- command line front end
"""

from .cyclo import Cyc
from .series import QSeries

__all__ = ["Cyc", "QSeries"]
__version__ = "0.1.0"
