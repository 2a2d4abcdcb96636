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
"""

from .adf import (
    AdfInstance,
    GeneratorSpec,
    Subfunction,
    Visibility,
    generate,
    paper_example,
    parse,
    project,
    serialize,
    serialize_json,
)
from .climb import ClimbPolicy, ClimbResult, DeltaState, hill_climb
from .errors import (
    CapacityError,
    ConfigError,
    GrayboxError,
    ParseError,
    StructuralError,
    VisibilityError,
)
from .fda import FdaConfig, FdaResult, run_fda
from .graphs import (
    ChordalCompletion,
    Factor,
    FactorGraph,
    Factorization,
    InteractionGraph,
    JunctionTree,
    build_factor_graph,
    build_vig,
    factorization_from_jt,
    junction_tree,
    triangulate,
    univariate_factorization,
)
from .marginals import (
    DeceptionReport,
    MarginalTable,
    deception_report,
    enumerate_marginal,
    enumerate_marginals,
    max_configs,
)

__version__ = "0.1.0"
