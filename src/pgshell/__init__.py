"""Exact graded commutative algebra over QQ or GF(p).

Groebner bases, Hilbert functions, saturation, graded minimal free
resolutions with Betti tables, a resolution-free Koszul homology oracle
for Tor, and the pregeometric-shell predicate with its criteria suite.
"""

from .catalog import (
    CatalogEntry,
    SplitMix64,
    complete_intersection,
    determinantal_minors,
    points_on_rational_normal_curve,
    rational_normal_curve,
    scroll_surface,
    twisted_cubic_cone_p5,
    veronese_surface,
)
from .errors import (
    CatalogError,
    ContainmentError,
    EngineError,
    InternalCheckError,
    NotHomogeneousError,
    PreconditionError,
    RingMismatchError,
    SourceError,
    TailNotStabilizedError,
    WeightedRingError,
)
from .fields import Field, QQ, field_self_check
from .groebner import (
    GroebnerBasis,
    groebner_basis,
    is_minimal_generator,
    membership,
    normal_form,
    normal_form_with_quotients,
    same_ideal,
)
from .hilbert import HilbertData, HilbertSeries, hilbert_function, lead_term_series
from .koszul import koszul_tor, tor_comparison
from .memo import clear_caches
from .modules import GradedFreeModule, GradedMatrix
from .parser import parse_source, render_ideal, render_ring, render_source
from .poly import Ideal, Polynomial, linear_substitute, substitute_ideal
from .resolution import (
    BettiTable,
    FreeResolution,
    artinian_reduction,
    betti,
    betti_table,
    is_saturated,
    minimal_generators,
    minimal_resolution,
    regularity_and_depth,
    syzygies,
    verify_complex,
)
from .rings import PolyRing, standard_ring
from .saturation import ideal_intersection, ideal_quotient_saturation, saturate_irrelevant
from .shell import (
    ChainMap,
    InvariantRecord,
    ShellReport,
    check_containment,
    ci_chain_report,
    criteria_suite,
    invariants,
    lift_chain_map,
    pgshell_check,
    pgshell_check_oracle,
    pgshell_report,
    tensor_resolution,
)

__version__ = "0.1.0"
