"""cak: exact computational commutative algebra.

Groebner bases, graded free resolutions and Betti tables, Koszul and
Eagon-Northcott complexes, Ext/Tor over Artinian quotient rings, Ulrich
ideal certification, numerical-semigroup presentations, and determinantal
reductions.  All arithmetic is exact (prime fields or rationals).
"""

from .errors import (
    CakError,
    DegreeOverflowError,
    NotArtinianError,
    ParseError,
    PreconditionError,
    ResourceLimitError,
    RingMismatchError,
)
from .polyring import (
    GF,
    QQ,
    DEFAULT_PRIME,
    Field,
    Polynomial,
    RingPresentation,
    parse_poly,
    parse_poly_list,
    render_poly,
)
from .groebner import (
    Budget,
    IdealHandle,
    RingMap,
    eliminate,
    ideal_ops,
    ring_map_kernel,
    standard_monomials,
)
from .resolve import (
    BettiTable,
    ChainComplex,
    GradedFreeModule,
    PolyMatrix,
    PresentedModule,
    graded_rank_check,
    minimal_free_resolution,
    minimalize,
    module_length,
)
from .complexes import (
    GenericMatrix,
    betti_rank_formula,
    eagon_northcott,
    koszul_complex,
    tensor_complexes,
    verify_resolution,
)
from .quotient import (
    QuotientRing,
    cm_type,
    embedding_dim,
    ext_dims,
    is_free_module,
    socle_dim,
    tor_dims,
)
from .ulrich import (
    ar_instance_check,
    check_structure_conditions,
    circulant_ulrich_family,
    is_parameter_ideal,
    is_ulrich,
    type_relation_check,
    ulrich_model_ring,
)
from .semigroup import (
    NumericalSemigroup,
    family_2x3_semigroup,
    semigroup_ring,
)
from .detring import (
    det_reduction_sequence,
    minors_ideal,
    power_parameter_matrix,
)

__version__ = "0.1.0"

# Recorded as provenance by cakbench/run.py; cakbench/compare.py refuses records that differ.
KERNEL_BACKEND = "pure"
