"""conics92: the 92 plane conics meeting 8 general lines in P^3, counted
with quadratic-form weights and verified over R, Q and finite fields."""

from .fields import (
    COMPLEX,
    RATIONAL,
    REAL,
    PrimeField,
    PrimeFieldElement,
    QuadExtElement,
    QuadExtField,
    SquareClass,
    is_square,
    square_class,
)
from .geometry import (
    Chart,
    ChartPoint,
    Line3,
    Plane3,
    chart_coords,
    chart_embed,
    conic_coeffs_transition,
    genericity_check,
    meet_plane_oracle,
    plane_coords,
)
from .gw import (
    EQUAL,
    NOT_EQUAL,
    UNDECIDED,
    GwForm,
    gw_add,
    gw_equal,
    gw_mul,
    invariants,
    trace_form,
)
from .harness import (
    Instance,
    VerificationReport,
    brute_force_fq,
    gen_planted_instance,
    gen_random_instance,
    reduce_instance,
    verify,
)
from .section import (
    JacobianRecord,
    SectionSystem,
    eval_section,
    jacobian,
    local_index,
)
from .solver import (
    ConicSolution,
    ParameterHomotopy,
    SolutionSet,
    SolverOptions,
    TrackedPath,
    assemble_enriched_count,
    solve_all,
    start_solutions,
)

__version__ = "0.1.0"
