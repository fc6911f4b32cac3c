"""End-to-end synthesis: budgets, measurement, diagonalization, Weyl mapping.

The emitted circuit is ordered for application to |hw>: first the Weyl
reflections preparing the top weight state of the diagonalized Hamiltonian,
then the diagonalization rotations composed as V = V_1 V_2 ... V_K' (listed
in application order V_K', ..., V_1), so that the full sequence carries
|hw> to a state epsilon-close to the target GCS.
"""

from dataclasses import dataclass
import math
import numbers
import warnings

import numpy as np

from . import diagonalize, weyl
from .errors import GapBudgetInfeasible, InvalidParameter
from .moments import MomentVector, build_target
from .states import (
    HiddenGcs,
    apply_circuit,
    highest_weight_state,
    phase_min_distance,
    state_fidelity,
)

DEFAULT_C_D = 1.0 / 16.0
DEFAULT_C_M = 1.0 / 8.0


@dataclass(frozen=True)
class ToleranceBudget:
    """Derived tolerances for a target state error epsilon at confidence 1 - delta.

    eps_D = c_D eps^2 Delta^2 / (L ||O||^2) drives the diagonalization;
    eps_M = c_M eps Delta / (M ||O||) is the per-moment precision; Q is the
    Hoeffding shot count per observable at per-observable confidence
    1 - delta/M.
    """

    epsilon: float
    delta: float
    eps_D: float
    eps_M: float
    Delta: float
    O_norm: float
    Q: int
    K_prime_bound: int
    c_D: float = DEFAULT_C_D
    c_M: float = DEFAULT_C_M


@dataclass
class SynthesisReport:
    """Circuit plus everything needed to audit how it was obtained."""

    ops: list
    kind_tags: list
    trace: list
    achieved_d: float
    steps_jacobi: int
    steps_weyl: int
    budget: ToleranceBudget
    moments_source: str
    algebra_label: str
    shots_per_observable: int = 0
    shot_total: int = 0
    fidelity: float = None
    distance: float = None

    @property
    def total_ops(self):
        return len(self.ops)


@dataclass(frozen=True)
class VerificationResult:
    fidelity: float
    distance: float


def spectral_gap(algebra):
    """Gap between the two largest eigenvalues of F_hw; see `Algebra.spectral_gap`."""
    return algebra.spectral_gap


def hoeffding_shots(o_norm, eps_m, delta, num_observables):
    """Shots per observable: Q = ceil(2 ||O||^2 ln(2M/delta) / eps_M^2).

    Raises InvalidParameter when Q is not finite or eps_M^2 overflows.
    """
    eps_sq = _square(eps_m, "eps_M")
    shots = 2.0 * o_norm ** 2 * math.log(2.0 * num_observables / delta) / eps_sq \
        if eps_sq > 0 else math.inf
    if not math.isfinite(shots):
        raise InvalidParameter(f"the shot count for eps_M = {eps_m:.3g}, delta = {delta:.3g} "
                               "is not finite")
    return int(math.ceil(shots))


def _square(x, name):
    try:
        return x ** 2
    except OverflowError:
        raise InvalidParameter(f"{name} = {x:.3g} is too large: its square overflows") from None


def make_budget(epsilon, delta, algebra):
    """Tolerance budget for a synthesis at state error epsilon, confidence 1 - delta."""
    for name, value in (("epsilon", epsilon), ("delta", delta)):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise InvalidParameter(f"{name} must be a real number, got {value!r}")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise InvalidParameter(f"epsilon must be finite and positive, got {epsilon}")
    if not 0 < delta < 1:
        raise InvalidParameter(f"delta must be in (0, 1), got {delta}")
    # The accessors, not the properties, so that traced runs charge the first
    # (uncached) computation of each to its own layer.
    _, weights = highest_weight_state(algebra)
    gap = spectral_gap(algebra)
    o_norm = algebra.max_observable_norm
    num_roots = algebra.cartan_weyl.num_roots_L
    eps_d = DEFAULT_C_D * _square(epsilon, "epsilon") * gap ** 2 / (num_roots * o_norm ** 2)
    eps_m = DEFAULT_C_M * epsilon * gap / (algebra.dim * o_norm)
    d0_cap = float(np.dot(weights, weights))  # d^0 <= purity
    if not (eps_d > 0 and d0_cap / eps_d < math.inf):
        raise InvalidParameter(f"epsilon = {epsilon:.3g} makes eps_D = {eps_d:.3g} underflow")
    if eps_m >= o_norm:
        warnings.warn(
            f"eps_M = {eps_m:.3g} >= ||O|| = {o_norm:.3g}: the budget demands nothing",
            GapBudgetInfeasible,
        )
    return ToleranceBudget(
        epsilon=float(epsilon),
        delta=float(delta),
        eps_D=float(eps_d),
        eps_M=float(eps_m),
        Delta=gap,
        O_norm=o_norm,
        Q=hoeffding_shots(o_norm, eps_m, delta, algebra.dim),
        K_prime_bound=diagonalize.step_bound(d0_cap, eps_d, num_roots),
    )


def synthesize(source, algebra, budget, seed=None, max_steps=None):
    """Produce a preparation circuit for a GCS from moments or a black box.

    Parameters
    ----------
    source : MomentVector or HiddenGcs
        Exact/sampled moments, or a black-box handle that will be sampled
        with budget.Q shots per observable.
    algebra : Algebra
    budget : ToleranceBudget
    seed : int, optional
        Measurement seed when sampling a black box.

    Returns
    -------
    SynthesisReport
    """
    shots = 0
    if isinstance(source, HiddenGcs):
        shots = budget.Q
        moments = source.sample_moments(budget.Q, seed)
    elif isinstance(source, MomentVector):
        moments = source
        if moments.source == "sampled" and moments.shots:
            shots = moments.shots
    else:
        raise InvalidParameter("source must be a MomentVector or a HiddenGcs handle")

    coeffs = build_target(moments, algebra)
    result = diagonalize.run(coeffs, algebra, budget.eps_D, max_steps=max_steps)
    info = weyl.top_weight_state(result.final_coeffs, algebra)
    weyl_ops = weyl.reflect_to_highest_weight(info, algebra)

    # |psi> ~ V_1 ... V_K' |w0>; application order is reflections first,
    # then the V_k in reverse emission order.
    ops = list(weyl_ops) + [op for op in reversed(result.ops)]
    tags = ["weyl"] * len(weyl_ops) + ["jacobi"] * len(result.ops)
    return SynthesisReport(
        ops=ops,
        kind_tags=tags,
        trace=list(result.trace),
        achieved_d=result.achieved_d,
        steps_jacobi=result.steps_taken,
        steps_weyl=len(weyl_ops),
        budget=budget,
        moments_source=moments.source,
        algebra_label=algebra.label(),
        shots_per_observable=shots,
        shot_total=shots * algebra.dim,
    )


def verify(report_or_ops, reference, algebra):
    """Fidelity and phase-minimized distance of a circuit against a reference state."""
    ops = report_or_ops.ops if isinstance(report_or_ops, SynthesisReport) else report_or_ops
    prepared = apply_circuit(algebra.highest_weight[0], ops, algebra)
    ref = np.asarray(reference, dtype=complex)
    return VerificationResult(
        fidelity=state_fidelity(ref, prepared),
        distance=phase_min_distance(ref, prepared),
    )
