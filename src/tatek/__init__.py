"""Exact-arithmetic computation of p-adic Farrell-Tate K-theory dimensions.

The toolkit covers: mod-p matrix stabilisers and Burnside orbit counts on
nontrivial maps F_2 -> Z/p, equivariant graphs with Whitehead moves and
rose-cycle normal forms, a citation-tagged registry of known rational group
cohomology, enumeration of order-p conjugacy classes of Out(F_n), and the
assembly of Farrell-Tate and rationalised p-adic K-theory dimension tables.
"""

__version__ = "0.1.0"

from .assemble import (
    Contribution,
    RationalKResult,
    TateKResult,
    Unknown,
    emit_table,
    example_amalgam,
    example_gl,
    example_mcg,
    example_sl3,
    example_sp,
    rational_k,
    tate_k,
    weak_duality,
)
from .classes import ClassList, ConjClassDescriptor, OutOfRange, centraliser_of, order_p_classes
from .graphs import (
    EdgeOrbitRef,
    EquivariantGraph,
    Move,
    NormalForm,
    canonical_graph,
    collapse_orbit,
    expand_orbit,
    has_fixed_vertex,
    is_canonical_form,
    normalize,
    random_valid_graph,
    rank,
    slide,
    validate,
)
from .modp import (
    ClosureExceedsBound,
    Mat2P,
    MatrixGroup,
    ModulusMismatch,
    StabiliserKind,
    group_closure,
    mat_mul,
    stabiliser_group,
)
from .orbits import (
    MAX_ORBIT_PRIME,
    FixedPointReport,
    NonIntegralOrbitCount,
    OrbitPrimeTooLarge,
    OrbitReport,
    QuotientGraphSummary,
    burnside_orbit_count,
    enumerate_orbits,
    fixed_points,
    iter_orbits,
    orbit_report,
    quotient_summary,
)
from .series import (
    Finite,
    FlipSquare,
    FreeAbelian,
    FreeGroup,
    NoSuchEntry,
    PoincareSeries,
    Product,
    Registry,
    RegistryEntry,
    RegistryRef,
    UnknownCohomology,
    even_odd_totals,
    registry_lookup,
    series_of,
)
