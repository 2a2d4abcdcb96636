"""Gray-box optimization toolkit for k-bounded additively decomposed functions.

Submodules:
  adf        instance types, evaluation, generators, file formats
  graphs     interaction/factor graphs, triangulation, junction trees,
             factorizations
  marginals  exhaustive marginal statistics, deception reports
  fda        fixed-structure factorized distribution algorithm
  climb      delta-evaluating hill climber with pair moves
  replicate  worked-example table replication against golden copies
  cli        command-line interface (`graybox`)

The top level holds only the README quick-start names; everything else is
imported from its submodule.
"""

from .adf import paper_example
from .climb import hill_climb
from .fda import FdaConfig, run_fda
from .graphs import build_vig, factorization_from_jt, junction_tree, triangulate

__version__ = "0.1.0"
