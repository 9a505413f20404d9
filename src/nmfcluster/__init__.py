"""Nonnegative matrix factorization with orthogonality penalties, plus the
clustering metrics and baselines needed to evaluate the factors as cluster
indicators.

The short tour: generate or load a nonnegative matrix, factorize it with
``nmf_multiplicative`` / ``nmf_anls`` / ``nmf_orthogonal``, normalize the
factors, read cluster assignments off them with ``assign_items`` and
``assign_features``, and score against planted labels or the
ratio-association objective.  The ``nmf-cluster`` console script wraps
the same pipeline.
"""

from .affinity import *
from .baselines import *
from .core import *
from .data_io import *
from .errors import *
from .experiment import *
from .metrics import *
from .solvers import *

__version__ = "0.1.0"
