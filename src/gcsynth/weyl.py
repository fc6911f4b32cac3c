"""Weyl-reflection mapping from a weight state to the highest-weight state.

The weight state is `top_weight_state` of the diagonalized coefficient
vector c, read from its CSA entries alone, with its weights, a row of the
CSA weight table.  A reflection in root l is the group operation
exp{i(alpha E+_l + alpha* E-_l)} with |alpha| = pi / sqrt(2 eta_l) (cached as `Algebra.reflection_alphas`): a pi
rotation in the root's su(2), mapping Sz_l -> -Sz_l and so a weight state of
weight w to one of weight s_l(w) = w - 4 m_l mu_l, m_l = mu_l . w / eta_l (the
root vector is 2 mu_l; Humphreys, Introduction to Lie Algebras, 10.1).  The walk
runs on weights alone, choosing greedily among roots with m_l < 0 the one that
most increases the overlap with the highest weight; sum_l m_l strictly increases
at every such reflection, so the walk ends on any weight in the orbit of the
highest weight.  The walk starts from the given weights, measuring none; the
state is rotated only once per chosen reflection, to check that the walk
reached |hw>.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import _freeze
from .errors import DegenerateTop, NoProgress
from .states import GroupOp, state_fidelity

DEGENERACY_REL_TOL = 1e-8
PROGRESS_TOL = 1e-10
M_NEGATIVE_TOL = 1e-9


@dataclass(frozen=True)
class WeightStateInfo:
    """A simultaneous CSA eigenvector with its weights."""

    state: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "state", _freeze(self.state, complex))
        object.__setattr__(self, "weights", _freeze(self.weights, float))


def top_weight_state(coeffs, algebra):
    """Eigenvector of largest eigenvalue of the CSA part sum_r gamma_r H_r of c.

    gamma is c on the CSA indices; the root entries of c are not read.  The
    element is diagonal in `Algebra.weight_basis` (`Algebra.csa_top`): the
    state is a column of that basis and its weights the matching row of the
    weight table, so no eigendecomposition or weight measurement per call.

    Raises
    ------
    DegenerateTop
        When the gap to the second eigenvalue is below 1e-8 of the operator
        norm; the synthesis problem is ill-posed for such inputs.
    """
    top, gap, norm = algebra.csa_top(coeffs[list(algebra.cartan_weyl.csa_indices)])
    if gap < DEGENERACY_REL_TOL * norm:
        raise DegenerateTop(
            f"top eigenvalue gap {gap:.3e} is below {DEGENERACY_REL_TOL:.0e} * ||F||"
        )
    vectors, weight_table = algebra.weight_basis
    return WeightStateInfo(state=vectors[:, top], weights=weight_table[top])


def reflect_to_highest_weight(info, algebra):
    """Weyl reflections connecting the highest-weight state to `info.state`, a
    weight state of weights `info.weights`.

    Returns
    -------
    list of GroupOp
        Preparation segment: applying the returned ops to |hw> in list order
        reproduces info.state up to a global phase.

    Raises
    ------
    NoProgress
        No reflection raises the weights further and the reflections chosen
        do not carry the state to |hw>: the weight lies outside the orbit of
        the highest weight (the input was not a GCS), or the state is not a
        weight state of `info.weights`.
    """
    cw = algebra.cartan_weyl
    state, weights = info.state, info.weights
    hw, w_hw = algebra.highest_weight
    mu, etas = cw.mu_matrix, cw.etas
    w_scale = max(1.0, float(np.abs(w_hw).max()))
    applied = []  # roots moving the state toward |hw>

    for _ in range(4 * cw.num_roots_L + 1):
        m_vals = mu @ weights / etas
        candidates = np.nonzero(m_vals < -M_NEGATIVE_TOL * w_scale)[0]
        if candidates.size == 0:
            break
        # Every candidate in one pass; the best has the largest (overlap gain,
        # height gain, -l).  Stacked products keep one dot and one matrix-vector
        # product per candidate, so the keys equal a per-candidate loop's bits.
        moved = weights - (4.0 * m_vals[candidates])[:, None] * mu[candidates]
        overlap_gain = ((moved - weights)[:, None, :] @ w_hw)[:, 0]
        height_gain = ((mu @ moved[:, :, None])[:, :, 0] / etas).sum(axis=1) - np.sum(m_vals)
        best = np.lexsort((-candidates, height_gain, overlap_gain))[-1]
        if height_gain[best] <= PROGRESS_TOL or overlap_gain[best] < -PROGRESS_TOL * w_scale:
            raise NoProgress(
                "no reflection increases the weight overlap; state is outside the GCS orbit"
            )
        applied.append(int(candidates[best]))
        weights = moved[best]

    for l in applied:
        state = cw.defining.rotate(l, algebra.reflection_alphas[l], state)
    if not state_fidelity(state, hw) >= 1.0 - 1e-9:
        raise NoProgress(
            "reflections exhausted without reaching the highest-weight state; "
            "the input weight is outside the orbit"
        )
    # state = W_J ... W_1 |w0>, so |w0> = W_1^† ... W_J^† |hw> applied last-first.
    return [GroupOp(l, -algebra.reflection_alphas[l]) for l in reversed(applied)]
