"""Classical simulation of Lie-algebraic quantum circuits.

Gates act on the moment vector through their adjoint action
d[m, m'] = Tr(O_m' T^dag O_m T)/N, so a circuit of length L propagates the
M expectation values in O(L M^2) after the actions are built.  A group
operation's action is `Algebra.adjoint.rotate` applied to the identity: the
closed-form root rotation, O(M^3), with no eigendecomposition.
Explicit unitaries are conjugated on the defining representation and
accepted only when conjugation keeps the algebra span.  The final state of
a valid trajectory stays a GCS, certified by its purity, and can be handed
back to the synthesis pipeline.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import _freeze, trace_gram
from .errors import InvalidGate, LeavesAlgebraSpan, LengthMismatch, NonFiniteGate, NotAGcs
from .moments import MomentVector
from .pipeline import synthesize
from .states import GroupOp, exact_moments

SPAN_TOL = 1e-8


@dataclass(frozen=True)
class AdjointAction:
    """Real matrix d with T^dag O_m T = sum_m' d[m, m'] O_m'."""

    matrix: np.ndarray
    descriptor: str = "gate"

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(self.matrix, float))


@dataclass(frozen=True)
class LqcCircuit:
    """Ordered gate actions plus the initial moment vector."""

    actions: tuple
    initial: MomentVector

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))
        dims = {a.matrix.shape for a in self.actions}
        if dims and dims != {(len(self.initial), len(self.initial))}:
            raise LengthMismatch("all gate actions must share the algebra dimension")


def adjoint_action_of(gate, algebra):
    """Adjoint action of a gate on the moment vector.

    Parameters
    ----------
    gate : GroupOp or (rep_dim, rep_dim) unitary ndarray
        Group operations always qualify: d is the adjoint rotation of the
        identity, whose real part is exact because the generator's adjoint
        image is i times a real antisymmetric matrix.  Explicit unitaries
        must keep the algebra span under conjugation (residual below 1e-8),
        which is the classical-simulability requirement.

    Raises
    ------
    RootIndexOutOfRange, InvalidGate, NonFiniteGate, LeavesAlgebraSpan
    """
    if isinstance(gate, GroupOp):
        rotated = algebra.adjoint.rotate(gate.root_index, gate.alpha, np.eye(algebra.dim))
        return AdjointAction(matrix=rotated.real, descriptor=f"group_op(l={gate.root_index})")
    unitary = np.asarray(gate, dtype=complex)
    if unitary.shape != (algebra.rep_dim, algebra.rep_dim):
        raise InvalidGate("unitary has the wrong dimension for this representation")
    if not np.isfinite(unitary).all():
        raise NonFiniteGate("gate matrix holds NaN or infinite entries")
    if not np.abs(unitary.conj().T @ unitary - np.eye(algebra.rep_dim)).max() <= 1e-10:
        raise InvalidGate("gate matrix is not unitary")
    mats = np.asarray(algebra.basis.basis)
    conjugated = unitary.conj().T @ mats @ unitary
    d_complex = trace_gram(conjugated, mats) / algebra.norm
    flat = mats.reshape(algebra.dim, -1)
    resid = np.linalg.norm(conjugated.reshape(algebra.dim, -1) - d_complex @ flat, axis=1)
    scale = max(1.0, float(np.linalg.norm(flat, axis=1).max()))
    if not resid.max() <= SPAN_TOL * scale:
        raise LeavesAlgebraSpan(
            f"conjugation leaves the algebra span (worst residual {resid.max():.2e})"
        )
    return AdjointAction(matrix=d_complex.real, descriptor="unitary")


def propagate(circuit):
    """Moment vector after the whole circuit: moments_l = d^(l) moments_(l-1)."""
    values = np.asarray(circuit.initial.values, dtype=float)
    for action in circuit.actions:
        values = action.matrix @ values
    return MomentVector(values=values, source=circuit.initial.source,
                        shots=circuit.initial.shots, seed=circuit.initial.seed)


def gcs_certificate(moments, algebra, tol=1e-8):
    """Whether the moments carry the full orbit purity; returns (ok, deficit)."""
    weights = algebra.highest_weight[1]
    p_h = float(np.dot(weights, weights))
    deficit = p_h - moments.purity
    return bool(abs(deficit) <= tol * p_h), float(deficit)


def hw_moments(algebra):
    """Exact moments of the highest-weight state (the canonical LQC input)."""
    return exact_moments(algebra.highest_weight[0], algebra)


def final_state_query(moments, algebra, budget):
    """Recover a preparation circuit for the final state of an LQC trajectory.

    Requires the purity certificate to pass; delegates to the synthesis
    pipeline with the propagated (exact) moments.
    """
    ok, deficit = gcs_certificate(moments, algebra)
    if not ok:
        raise NotAGcs(f"purity deficit {deficit:.3e}; the state left the GCS orbit")
    return synthesize(moments, algebra, budget)
