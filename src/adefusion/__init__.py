"""Fusion algebras, essential matrices, quantum symmetries and modular
data of ADE Dynkin diagrams."""

__version__ = "0.1.0"

from .errors import (
    AdeError,
    UnsupportedDiagramError,
    NoPositiveHypergroupError,
    NotDefinedError,
    LengthCapError,
    StructuralError,
)
from .diagram import (
    Family,
    DynkinDiagram,
    build_diagram,
    parse_graph_name,
    graph_norm,
    perron_frobenius,
    q_number,
    coxeter_exponents,
)
from .fusion import (
    FusionAlgebra,
    fusion_matrices,
    ambichiral_subalgebra,
    fusion_table_ascii,
    fusion_json,
)
from .essential import (
    EssentialSet,
    essential_matrices,
    fused_adjacency,
    intertwiner_check,
    esspath_dims,
    para_invariants,
    decompose_left,
    reduced_essential,
)
from .path_model import (
    PathSpace,
    PathOperator,
    enumerate_paths,
    annihilation_operator,
    creation_operator,
    jones_projector,
    essential_subspace,
)
from .ocneanu import (
    QuantumSymmetries,
    quantum_symmetry_algebra,
    normal_form,
    multiply_qs,
    cayley_graph,
    s_matrices,
    decompose_right,
)
from .modular import (
    ModularRep,
    modular_rep,
    verlinde_s,
    verlinde_t,
    toric_matrices,
    modular_invariance_check,
    partition_function,
)
