"""Jacobi-type diagonalization of algebra elements by group conjugations.

The Hamiltonian is carried as its real coefficient vector c over the
orthogonal basis, from `build_target` to the final CSA element; its root
coefficients iota (`moments.root_coefficients`) are read off c once per
step and give both the distance d and the pivot, the root carrying the
largest |iota_l|.  Each step decomposes the Hamiltonian inside that root's
su(2) as xi_z Sz + xi_x Sx + xi_y Sy + (orthogonal rest), and conjugates by
the rotation that aligns the su(2) part with Sz.  The
rotation axis lies in the Sx/Sy plane, perpendicular to (xi_x, xi_y), and
the angle is the polar angle theta = arctan2(sqrt(xi_x^2 + xi_y^2), xi_z);
the two-argument form keeps xi_z < 0 inputs on the (pi/2, pi) branch, where
a principal-branch arctan would rotate toward the wrong pole.  c is rotated
in the adjoint representation by `RootImages.rotate`, the closed form of the
exponential on the root generator's known spectrum: a handful of real
products with the generator's block on the root's support S (36-38 of 66
coordinates at so(12)), so one step costs O(|S|^2) <= O(M^2), with no
M x M rotation matrix formed and no eigendecomposition.
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
    integer_argument,
)
from .moments import root_coefficients
from .states import GroupOp

PIVOT_REL_TOL = 1e-10
PIVOT_ABS_TOL = 1e-12


@dataclass(frozen=True)
class StepPlan:
    """One planned su(2) rotation: pivot root and exponent alpha, whose modulus
    is the polar angle theta over sqrt(2 eta)."""

    pivot: int
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


def select_pivot(mags):
    """Index of the largest of the L magnitudes |iota_l|; ties break to the smallest."""
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
    return StepPlan(pivot=triple.root_index, alpha=alpha)


def apply_step(coeffs, plan, algebra, distance):
    """Conjugate by the planned rotation in the adjoint representation.

    The coefficient vector c becomes d.T @ c, with d the rotation's adjoint
    action (`lqc.adjoint_action_of`); d.T is the rotation by -alpha, applied
    to c directly by `Algebra.adjoint.rotate`, in real arithmetic.  distance
    is c's d, the last trace entry of `run`, and sets the pivot tolerance.

    Returns
    -------
    (ndarray, StepPlan)
        The rotated coefficient vector and the plan applied.

    Raises
    ------
    StepDidNotReducePivot
        If the pivot coefficient survives the step (as it does under a plan
        with alpha = 0, which `plan_step` never makes).
    """
    out = algebra.adjoint.rotate(plan.pivot, -plan.alpha, coeffs)
    # Absolute floor: near convergence sqrt(d) sinks below the conjugation
    # noise floor and a purely relative test would trip falsely.
    tol = PIVOT_REL_TOL * math.sqrt(distance) \
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
        At least 0; defaults to four times the contraction bound.

    Returns
    -------
    DiagonalizationResult
        ops are the V_k in emission order; conjugating the input operator by
        V_1..V_K' in sequence gives the operator with coefficients
        final_coeffs.  trace[k] is d after k steps (trace[0] = d^0).
    """
    if not eps_d > 0:
        raise InvalidParameter(f"eps_d must be positive, got {eps_d}")
    if max_steps is not None:
        max_steps = integer_argument(max_steps, "max_steps", 0)
    mags = np.abs(root_coefficients(coeffs, algebra))
    trace = [float(mags.dot(mags))]
    bound = step_bound(trace[0], eps_d, algebra.cartan_weyl.num_roots_L)
    if max_steps is None:
        max_steps = max(4 * bound, 16)

    ops = []
    while trace[-1] > eps_d:
        if len(ops) >= max_steps:
            raise MaxStepsExceeded(
                f"distance {trace[-1]:.3e} > {eps_d:.3e} after {max_steps} steps",
                trace=trace,
            )
        pivot = select_pivot(mags)
        plan = plan_step(coeffs, pivot, algebra)
        coeffs, _ = apply_step(coeffs, plan, algebra, trace[-1])
        ops.append(GroupOp(pivot, plan.alpha))
        mags = np.abs(root_coefficients(coeffs, algebra))
        trace.append(float(mags.dot(mags)))
    return DiagonalizationResult(ops=tuple(ops), final_coeffs=coeffs,
                                 trace=tuple(trace), steps_taken=len(ops))
