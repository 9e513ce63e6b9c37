"""Exact computations in Stanley-Reisner rings of boolean complexes.

The package provides validated boolean complexes (augmented face posets),
straightening-law normal forms on the standard-monomial basis, the shape
grading and dominance filtration, the transfer between a complex's face
ring and the ring of its barycentric subdivision, a linear-algebraic
Cohen-Macaulayness test with cell-basis construction, and construction and
group-averaging of equivariant parameter-ring module isomorphisms.
"""

from .coeff import FieldSpec, inverse, is_unit_integer, normal
from .complexes import (
    Balancing,
    BooleanComplex,
    SdMap,
    barycentric_subdivision,
    build_from_facets,
    build_from_poset,
    label_selected,
    validate_balancing,
)
from .partitions import Dominance, Partition, compare_dominance, sh, sh_inverse
from .face_ring import (
    ParameterPolynomial,
    RingElement,
    fine_vectors,
    graded_monomials,
    label_row_parameter,
    project_to_face,
    rank_row_parameter,
    straighten,
)
from .cm_basis import (
    CellBasis,
    CMVerdict,
    compute_basis,
    facet_vector,
    represent_on_cell_basis,
    subspace_M_S,
    verify_basis,
)
from .transfer import TransferContext, express_on_transferred_basis
from .equivariant import (
    Automorphism,
    Group,
    Morphism,
    act,
    average,
    build_phi,
    close_group,
    odd_cross_term_witness,
    verify_morphism,
)
from .expressions import RingLexicon, format_element, parse_element

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
