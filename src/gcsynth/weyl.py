"""Weyl-reflection mapping from a weight state to the highest-weight state.

The weight state is `top_weight_state` of the diagonalized coefficient
vector c, read from its CSA entries alone.  A reflection in root l is the group operation exp{i(alpha E+_l + alpha* E-_l)}
with |alpha| = pi / sqrt(2 eta_l) (cached as `Algebra.reflection_alphas`): a pi
rotation in the root's su(2), mapping Sz_l -> -Sz_l and so a weight state of
weight w to one of weight s_l(w) = w - 4 m_l mu_l, m_l = mu_l . w / eta_l (the
root vector is 2 mu_l; Humphreys, Introduction to Lie Algebras, 10.1).  The walk
runs on weights alone, choosing greedily among roots with m_l < 0 the one that
most increases the overlap with the highest weight; sum_l m_l strictly increases
at every such reflection, so the walk ends on any weight in the orbit of the
highest weight.  The state is rotated only once per chosen reflection, to check
that the walk reached |hw>.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import _freeze, vector_weights
from .errors import DegenerateTop, NoProgress, NotAWeightState
from .states import GroupOp, state_fidelity

DEGENERACY_REL_TOL = 1e-8
PROGRESS_TOL = 1e-10
M_NEGATIVE_TOL = 1e-9


@dataclass(frozen=True)
class WeightStateInfo:
    """A simultaneous CSA eigenvector with its weights and selecting eigenvalue."""

    state: np.ndarray
    weights: np.ndarray
    eigenvalue: float
    gap: float

    def __post_init__(self):
        object.__setattr__(self, "state", _freeze(self.state, complex))
        object.__setattr__(self, "weights", _freeze(self.weights, float))


def top_weight_state(coeffs, algebra):
    """Eigenvector of largest eigenvalue of the CSA part sum_r gamma_r H_r of c.

    gamma is c on the CSA indices; the root entries of c are not read.  The
    element is diagonal in `Algebra.weight_basis`, with eigenvalues
    weights @ gamma: no eigendecomposition per call.

    Raises
    ------
    DegenerateTop
        When the gap to the second eigenvalue is below 1e-8 of the operator
        norm; the synthesis problem is ill-posed for such inputs.
    """
    vectors, weight_table = algebra.weight_basis
    evals = weight_table @ coeffs[list(algebra.cartan_weyl.csa_indices)]
    order = np.argsort(evals)
    top, second = evals[order[-1]], evals[order[-2]]
    norm = max(abs(evals[order[0]]), abs(top), 1e-300)
    gap = float(top - second)
    if gap < DEGENERACY_REL_TOL * norm:
        raise DegenerateTop(
            f"top eigenvalue gap {gap:.3e} is below {DEGENERACY_REL_TOL:.0e} * ||F||"
        )
    return WeightStateInfo(state=vectors[:, order[-1]], weights=weight_table[order[-1]],
                           eigenvalue=float(top), gap=gap)


def reflect_to_highest_weight(info, algebra):
    """Weyl reflections connecting the highest-weight state to `info.state`.

    Returns
    -------
    list of GroupOp
        Preparation segment: applying the returned ops to |hw> in list order
        reproduces info.state up to a global phase.

    Raises
    ------
    NotAWeightState
        info.state is not a simultaneous CSA eigenvector.
    NoProgress
        No reflection raises the state further and it is not |hw|: the
        weight lies outside the orbit of the highest weight (the input was
        not a GCS).
    """
    cw = algebra.cartan_weyl
    state = np.asarray(info.state, dtype=complex)
    weights = vector_weights(state, algebra.csa_ops)
    if weights is None:
        raise NotAWeightState("state is not a simultaneous eigenvector of the CSA")

    hw, w_hw = algebra.highest_weight
    mu = cw.mu_matrix
    etas = cw.etas
    w_scale = max(1.0, float(np.abs(w_hw).max()))
    applied = []  # roots moving the state toward |hw>

    for _ in range(4 * cw.num_roots_L + 1):
        m_vals = mu @ weights / etas
        candidates = np.nonzero(m_vals < -M_NEGATIVE_TOL * w_scale)[0]
        if candidates.size == 0:
            break
        best = None
        for l in candidates:
            new_weights = weights - 4.0 * m_vals[l] * mu[l]
            overlap_gain = float(np.dot(w_hw, new_weights - weights))
            height_gain = float(np.sum(mu @ new_weights / etas) - np.sum(m_vals))
            key = (overlap_gain, height_gain, -int(l))
            if best is None or key > best[0]:
                best = (key, int(l), new_weights)
        (overlap_gain, height_gain, _), l, weights = best
        if height_gain <= PROGRESS_TOL or overlap_gain < -PROGRESS_TOL * w_scale:
            raise NoProgress(
                "no reflection increases the weight overlap; state is outside the GCS orbit"
            )
        applied.append(l)

    for l in applied:
        state = cw.defining.rotate(l, algebra.reflection_alphas[l], state)
    if not state_fidelity(state, hw) >= 1.0 - 1e-9:
        raise NoProgress(
            "reflections exhausted without reaching the highest-weight state; "
            "the input weight is outside the orbit"
        )
    # state = W_J ... W_1 |w0>, so |w0> = W_1^† ... W_J^† |hw> applied last-first.
    return [GroupOp(l, -algebra.reflection_alphas[l]) for l in reversed(applied)]
