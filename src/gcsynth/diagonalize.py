"""Jacobi-type diagonalization of algebra elements by group conjugations.

Each step picks the root carrying the largest off-diagonal coefficient,
decomposes the Hamiltonian inside that root's su(2) as
xi_z Sz + xi_x Sx + xi_y Sy + (orthogonal rest), and conjugates by the
rotation that aligns the su(2) part with Sz.  The rotation axis lies in the
Sx/Sy plane, perpendicular to (xi_x, xi_y), and the angle is the polar angle
theta = arctan2(sqrt(xi_x^2 + xi_y^2), xi_z); the two-argument form keeps
xi_z < 0 inputs on the (pi/2, pi) branch, where a principal-branch arctan
would rotate toward the wrong pole.  The coefficient vector is rotated in
the adjoint representation by `AdjointRep.rotate`, the closed form of the
exponential on the root generator's known spectrum: a handful of M x M
matrix-vector products, so one step costs O(M^2), with no M x M rotation
matrix formed and no eigendecomposition.
"""

from dataclasses import dataclass, replace
import math

import numpy as np

from .errors import (
    AlreadyDiagonal,
    InvalidParameter,
    MaxStepsExceeded,
    StepDidNotReducePivot,
    ZeroPivot,
)
from .moments import (
    CwDecomposition,
    decomposition_coefficients,
    decomposition_from_coefficients,
    offdiag_distance,
)
from .states import GroupOp

PIVOT_REL_TOL = 1e-10
PIVOT_ABS_TOL = 1e-12


@dataclass(frozen=True)
class StepPlan:
    """One planned su(2) rotation: pivot root, field components, angle, exponent."""

    pivot: int
    xi_x: float
    xi_y: float
    xi_z: float
    theta: float
    pi_x: float
    pi_y: float
    alpha: complex


@dataclass(frozen=True)
class DiagonalizationResult:
    """Emitted rotations V_1..V_K', the final coefficients, and the d trace."""

    ops: tuple
    final_decomp: CwDecomposition
    trace: tuple
    steps_taken: int

    @property
    def achieved_d(self):
        return self.trace[-1]


def select_pivot(decomp):
    """Index of a root with maximal |iota_l|; ties break to the smallest index."""
    mags = np.abs(decomp.iota)
    if mags.size == 0 or float(mags.max()) == 0.0:
        raise AlreadyDiagonal("decomposition has no off-diagonal part")
    return int(mags.argmax())


def plan_step(decomp, triple):
    """Compute the rotation that annihilates the pivot coefficient.

    The in-plane exponent (pi_x, pi_y) is scaled by
    theta / sqrt(xi_x^2 + xi_y^2), making the su(2) rotation angle equal theta.

    Parameters
    ----------
    decomp : CwDecomposition
    triple : RootTriple
        The pivot root's su(2) data (mu, eta).
    """
    iota = complex(decomp.iota[triple.root_index])
    if iota == 0:
        raise ZeroPivot(f"root {triple.root_index} has zero coefficient")
    eta = triple.eta
    xi_x = math.sqrt(eta / 2.0) * (2.0 * iota.real)
    xi_y = math.sqrt(eta / 2.0) * (-2.0 * iota.imag)
    xi_z = eta * float(np.dot(decomp.gamma, triple.mu)) / float(np.dot(triple.mu, triple.mu))
    rho = math.hypot(xi_x, xi_y)
    theta = math.atan2(rho, xi_z)
    scale = theta / rho
    pi_x = scale * xi_y
    pi_y = -scale * xi_x
    alpha = (pi_x - 1j * pi_y) / math.sqrt(2.0 * eta)
    return StepPlan(pivot=triple.root_index, xi_x=xi_x, xi_y=xi_y, xi_z=xi_z,
                    theta=theta, pi_x=pi_x, pi_y=pi_y, alpha=alpha)


def apply_step(decomp, plan, algebra):
    """Conjugate by the planned rotation in the adjoint representation.

    The coefficient vector c over the orthogonal basis becomes d.T @ c, with
    d the rotation's `AdjointRep.conjugation_matrix`; d.T is the rotation by
    -alpha, applied to c directly by `AdjointRep.rotate`.  The sign
    convention is checked once, when the algebra is assembled.

    Returns
    -------
    (CwDecomposition, StepPlan)
        The updated coefficients and the plan applied.

    Raises
    ------
    StepDidNotReducePivot
        If the pivot coefficient survives the step.
    """
    step_index = decomp.step_index + 1
    if plan.alpha == 0:
        # Identity conjugation: nothing moves and nothing to verify.
        return replace(decomp, step_index=step_index), plan

    coeffs = algebra.adjoint.rotate(plan.pivot, -plan.alpha,
                                    decomposition_coefficients(decomp, algebra))
    out = decomposition_from_coefficients(coeffs, algebra, step_index)
    # Absolute floor: near convergence sqrt(d) sinks below the conjugation
    # noise floor and a purely relative test would trip falsely.
    tol = PIVOT_REL_TOL * math.sqrt(offdiag_distance(decomp)) \
        + PIVOT_ABS_TOL * math.sqrt(max(decomp.coefficient_norm_sq, 1.0))
    if not abs(out.iota[plan.pivot]) <= tol:
        raise StepDidNotReducePivot(
            f"pivot {plan.pivot} kept |iota| = {abs(out.iota[plan.pivot]):.3e} (tol {tol:.3e})"
        )
    return out, plan


def step_bound(d0, eps_d, num_roots):
    """Sufficient step count from the per-step contraction: ceil(log(d0/eps)/log((L+1)/L))."""
    if d0 <= eps_d or d0 <= 0.0:
        return 0
    ratio = (num_roots + 1.0) / num_roots
    return int(math.ceil(math.log(d0 / eps_d) / math.log(ratio)))


def run(decomp, algebra, eps_d, max_steps=None):
    """Iterate pivot/plan/apply until the off-diagonal distance falls to eps_d.

    Parameters
    ----------
    decomp : CwDecomposition
        Starting coefficients (step 0).
    algebra : Algebra
    eps_d : float
        Target squared distance to the CSA.
    max_steps : int, optional
        Defaults to four times the contraction bound.

    Returns
    -------
    DiagonalizationResult
        ops are the V_k in emission order; conjugating the input operator by
        V_1..V_K' in sequence reproduces final_decomp.  trace[k] is d after
        k steps (trace[0] = d^0).
    """
    if not eps_d > 0:
        raise InvalidParameter(f"eps_d must be positive, got {eps_d}")
    d = offdiag_distance(decomp)
    bound = step_bound(d, eps_d, algebra.cartan_weyl.num_roots_L)
    if max_steps is None:
        max_steps = max(4 * bound, 16)

    trace = [d]
    ops = []
    current = decomp
    while trace[-1] > eps_d:
        if len(ops) >= max_steps:
            raise MaxStepsExceeded(
                f"distance {trace[-1]:.3e} > {eps_d:.3e} after {max_steps} steps",
                trace=trace,
            )
        pivot = select_pivot(current)
        plan = plan_step(current, algebra.cartan_weyl.root_triples[pivot])
        current, _ = apply_step(current, plan, algebra)
        ops.append(GroupOp(pivot, plan.alpha))
        trace.append(offdiag_distance(current))
    return DiagonalizationResult(ops=tuple(ops), final_decomp=current,
                                 trace=tuple(trace), steps_taken=len(ops))
