"""Graph homomorphism functors on a CSP search engine.

Left and central Pultr functors for arbitrary templates, the known
explicit right adjoints (subset-tuple constructions, arc graphs,
interleaved adjoints), power/root composites, chromatic and circular
chromatic computation with orientation certificates, shift graphs and
tree-duality verification over exhaustive small-instance universes.
"""

from .engine import (
    HomWitness,
    compose,
    hom_count,
    hom_enumerate,
    hom_equivalent,
    hom_exists,
    isomorphic,
    kernel_name,
    multiplicativity_search,
    verify_witness,
)
from .errors import (
    BudgetExceededError,
    ParameterError,
    ParseError,
    SizeGuardError,
)
from .functors import (
    PultrTemplate,
    builtin_template,
    gamma_functor,
    lambda_functor,
    product_commutation_check,
    validate_template,
    verify_adjunction,
)
from .graphs import (
    Digraph,
    Graph,
    as_graph,
    circular_complete,
    complete_graph,
    cycle_graph,
    directed_cycle,
    directed_path,
    dominated_reduction,
    enumerate_graphs,
    exponential_graph,
    is_connected,
    kneser_pairs,
    lexicographic_product,
    odd_girth,
    oriented_path,
    orientations,
    path_graph,
    symmetrization,
    tensor_product,
    transitive_tournament,
)
from .adjoints import (
    arc_graph,
    arc_graph_left,
    interleaved_adjoint,
    omega_odd_path,
    omega_oriented_path,
    power_functor,
    root_functor,
)
from .chromatic import (
    ColouringCertificate,
    chromatic_number,
    circular_chromatic_number,
    circular_colouring,
    circular_gallai_roy_check,
    gallai_roy_orientation,
    k_colourable,
    reversal_paths,
)
from .duality import (
    DualityJob,
    SproinkRecipe,
    delta_colouring_lift,
    minimal_path_sproinks,
    shift_graph,
    sproink,
    verify_dualities,
    verify_duality,
)

__version__ = "0.1.0"
