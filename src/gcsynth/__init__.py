"""Circuit synthesis and classical simulation for generalized coherent states.

Workflow: expectation values of an orthogonal Lie-algebra basis identify a
GCS; a Jacobi-type sequence of group conjugations diagonalizes the moment
Hamiltonian; Weyl reflections connect the resulting weight state to the
highest-weight state; the collected group operations form a preparation
circuit.  The same machinery propagates moments through Lie-algebraic
quantum circuits classically.
"""

from .algebra import (
    Algebra,
    AlgebraBasis,
    CartanWeylData,
    RootImages,
    RootTriple,
    assemble_algebra,
    build_cartan_weyl,
    orthonormalize_basis,
    validate_algebra,
)
from .catalog import (
    load_algebra,
    make_so2n,
    make_su2,
    resolve_algebra,
)
from .diagonalize import (
    DiagonalizationResult,
    StepPlan,
    apply_step,
    plan_step,
    run as diagonalize_run,
    select_pivot,
    step_bound,
)
from .lqc import (
    AdjointAction,
    LqcCircuit,
    adjoint_action_of,
    final_state_query,
    gcs_certificate,
    propagate,
)
from .moments import (
    MomentVector,
    build_target,
    offdiag_distance,
    root_coefficients,
)
from .pipeline import (
    SynthesisReport,
    ToleranceBudget,
    hoeffding_shots,
    make_budget,
    spectral_gap,
    synthesize,
    verify,
)
from .states import (
    GroupOp,
    HiddenGcs,
    apply_circuit,
    apply_group_op,
    exact_moments,
    hidden_gcs,
    highest_weight_state,
    sample_all_moments,
)
from .weyl import WeightStateInfo, reflect_to_highest_weight, top_weight_state

__version__ = "0.1.0"
