"""Jacobi-type diagonalization of algebra elements by group conjugations.

The Hamiltonian is carried as its real coefficient vector c over the
orthogonal basis, from `build_target` to the final CSA element; its root
coefficients iota are read off c by `moments.root_coefficients`.  Each step
picks the root carrying the largest |iota_l|, decomposes the Hamiltonian
inside that root's su(2) as xi_z Sz + xi_x Sx + xi_y Sy + (orthogonal rest),
and conjugates by the rotation that aligns the su(2) part with Sz.  The
rotation axis lies in the Sx/Sy plane, perpendicular to (xi_x, xi_y), and
the angle is the polar angle theta = arctan2(sqrt(xi_x^2 + xi_y^2), xi_z);
the two-argument form keeps xi_z < 0 inputs on the (pi/2, pi) branch, where
a principal-branch arctan would rotate toward the wrong pole.  c is rotated
in the adjoint representation by `RootImages.rotate`, the closed form of the
exponential on the root generator's known spectrum: a handful of M x M
matrix-vector products, so one step costs O(M^2), with no M x M rotation
matrix formed and no eigendecomposition.
"""

from dataclasses import dataclass
import math

import numpy as np

from .algebra import check_root_index
from .errors import (
    AlreadyDiagonal,
    InvalidParameter,
    MaxStepsExceeded,
    StepDidNotReducePivot,
    ZeroPivot,
)
from .moments import offdiag_distance, root_coefficients
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
    final_coeffs: np.ndarray
    trace: tuple
    steps_taken: int

    @property
    def achieved_d(self):
        return self.trace[-1]


def select_pivot(coeffs, algebra):
    """Index of a root with maximal |iota_l|; ties break to the smallest index."""
    mags = np.abs(root_coefficients(coeffs, algebra))
    if mags.size == 0 or float(mags.max()) == 0.0:
        raise AlreadyDiagonal("coefficient vector has no off-diagonal part")
    return int(mags.argmax())


def plan_step(coeffs, pivot, algebra):
    """Compute the rotation that annihilates root `pivot`'s coefficient.

    xi_z is eta gamma . mu / |mu|^2, with gamma = c on the CSA indices and
    (mu, eta) the root's `RootTriple`.  The in-plane exponent (pi_x, pi_y)
    is scaled by theta / sqrt(xi_x^2 + xi_y^2), making the su(2) rotation
    angle equal theta.  RootIndexOutOfRange unless 0 <= pivot < L.
    """
    cw = algebra.cartan_weyl
    check_root_index(pivot, cw.num_roots_L)
    u, v = cw.pair_map[pivot]
    iota = complex(coeffs[u] - 1j * coeffs[v])
    if iota == 0:
        raise ZeroPivot(f"root {pivot} has zero coefficient")
    triple = cw.root_triples[pivot]
    eta = triple.eta
    gamma = coeffs[list(cw.csa_indices)]
    xi_x = math.sqrt(eta / 2.0) * (2.0 * iota.real)
    xi_y = math.sqrt(eta / 2.0) * (-2.0 * iota.imag)
    xi_z = eta * float(np.dot(gamma, triple.mu)) / float(np.dot(triple.mu, triple.mu))
    rho = math.hypot(xi_x, xi_y)
    theta = math.atan2(rho, xi_z)
    scale = theta / rho
    pi_x = scale * xi_y
    pi_y = -scale * xi_x
    alpha = (pi_x - 1j * pi_y) / math.sqrt(2.0 * eta)
    return StepPlan(pivot=triple.root_index, xi_x=xi_x, xi_y=xi_y, xi_z=xi_z,
                    theta=theta, pi_x=pi_x, pi_y=pi_y, alpha=alpha)


def apply_step(coeffs, plan, algebra):
    """Conjugate by the planned rotation in the adjoint representation.

    The coefficient vector c becomes d.T @ c, with d the rotation's adjoint
    action (`lqc.adjoint_action_of`); d.T is the rotation by -alpha, applied
    to c directly by `Algebra.adjoint.rotate`.  Its real part is exact: the
    generator's adjoint image is i times a real antisymmetric matrix.

    Returns
    -------
    (ndarray, StepPlan)
        The rotated coefficient vector and the plan applied.

    Raises
    ------
    StepDidNotReducePivot
        If the pivot coefficient survives the step.
    """
    if plan.alpha == 0:
        # Identity conjugation: nothing moves and nothing to verify.
        return coeffs, plan

    out = algebra.adjoint.rotate(plan.pivot, -plan.alpha, coeffs).real
    # Absolute floor: near convergence sqrt(d) sinks below the conjugation
    # noise floor and a purely relative test would trip falsely.
    tol = PIVOT_REL_TOL * math.sqrt(offdiag_distance(coeffs, algebra)) \
        + PIVOT_ABS_TOL * math.sqrt(max(float(np.dot(coeffs, coeffs)), 1.0))
    u, v = algebra.cartan_weyl.pair_map[plan.pivot]
    left = math.hypot(out[u], out[v])
    if not left <= tol:
        raise StepDidNotReducePivot(
            f"pivot {plan.pivot} kept |iota| = {left:.3e} (tol {tol:.3e})"
        )
    return out, plan


def step_bound(d0, eps_d, num_roots):
    """Sufficient step count from the per-step contraction: ceil(log(d0/eps)/log((L+1)/L))."""
    if d0 <= eps_d or d0 <= 0.0:
        return 0
    ratio = (num_roots + 1.0) / num_roots
    return int(math.ceil(math.log(d0 / eps_d) / math.log(ratio)))


def run(coeffs, algebra, eps_d, max_steps=None):
    """Iterate pivot/plan/apply until the off-diagonal distance falls to eps_d.

    Parameters
    ----------
    coeffs : ndarray
        Starting coefficient vector over the orthogonal basis (step 0).
    algebra : Algebra
    eps_d : float
        Target squared distance to the CSA.
    max_steps : int, optional
        Defaults to four times the contraction bound.

    Returns
    -------
    DiagonalizationResult
        ops are the V_k in emission order; conjugating the input operator by
        V_1..V_K' in sequence gives the operator with coefficients
        final_coeffs.  trace[k] is d after k steps (trace[0] = d^0).
    """
    if not eps_d > 0:
        raise InvalidParameter(f"eps_d must be positive, got {eps_d}")
    d = offdiag_distance(coeffs, algebra)
    bound = step_bound(d, eps_d, algebra.cartan_weyl.num_roots_L)
    if max_steps is None:
        max_steps = max(4 * bound, 16)

    trace = [d]
    ops = []
    while trace[-1] > eps_d:
        if len(ops) >= max_steps:
            raise MaxStepsExceeded(
                f"distance {trace[-1]:.3e} > {eps_d:.3e} after {max_steps} steps",
                trace=trace,
            )
        pivot = select_pivot(coeffs, algebra)
        plan = plan_step(coeffs, pivot, algebra)
        coeffs, _ = apply_step(coeffs, plan, algebra)
        ops.append(GroupOp(pivot, plan.alpha))
        trace.append(offdiag_distance(coeffs, algebra))
    return DiagonalizationResult(ops=tuple(ops), final_coeffs=coeffs,
                                 trace=tuple(trace), steps_taken=len(ops))
