"""Covariance-power features and structural consistency for graph Matern fields.

The package exports exactly the names in its modules' ``__all__`` lists.
"""

from . import consistency, errors, features, geometry, graphs, matern, pipeline, signatures, spd
from .consistency import *
from .errors import *
from .features import *
from .geometry import *
from .graphs import *
from .matern import *
from .pipeline import *
from .signatures import *
from .spd import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (errors, graphs, spd, matern, consistency, features, pipeline, geometry, signatures)
    for name in module.__all__
] + ["__version__"]
