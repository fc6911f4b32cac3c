"""Exact dense-vector state engine on the defining representation.

Provides group-element application, exact expectations, seeded
projective-measurement sampling, and the hidden black-box source used to
exercise the synthesis pipeline.  The highest-weight state itself is
derived and cached by `Algebra.highest_weight`.  A group operation acts on
a state through `RootImages.rotate` on the defining representation
(`CartanWeylData.defining`), a few matrix-vector products, O(d^2): no
unitary and no eigendecomposition.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import is_hermitian
from .errors import InvalidParameter, NonFiniteGate, NonHermitianObservable, ShotCountOverflow
from .moments import MomentVector


@dataclass(frozen=True)
class GroupOp:
    """One displacement exponential exp{i(alpha E+_l + alpha* E-_l)}."""

    root_index: int
    alpha: complex

    def __post_init__(self):
        if not np.isfinite(self.alpha):
            raise NonFiniteGate(f"group-op exponent alpha = {self.alpha} is not finite")

    def inverse(self):
        return GroupOp(self.root_index, -self.alpha)


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcome of Q projective measurements of one basis observable."""

    observable_index: int
    num_shots: int
    estimate: float
    shot_seed: int


def apply_group_op(state, op, algebra):
    """Apply one group exponential to a state vector; norm is preserved."""
    out = algebra.cartan_weyl.defining.rotate(op.root_index, op.alpha,
                                              np.asarray(state, dtype=complex))
    return out / np.linalg.norm(out)


def apply_circuit(state, ops, algebra):
    """Apply a sequence of GroupOps in list order (ops[0] acts first)."""
    out = np.asarray(state, dtype=complex)
    for op in ops:
        out = apply_group_op(out, op, algebra)
    return out


def highest_weight_state(algebra):
    """The highest-weight state and its CSA weights; see `Algebra.highest_weight`."""
    return algebra.highest_weight


def _state_vector(state):
    """The state as a complex array; InvalidParameter unless its norm is finite
    and nonzero (checked before any product, where inf would warn)."""
    psi = np.asarray(state, dtype=complex)
    if not 0.0 < np.vdot(psi, psi).real < np.inf:
        raise InvalidParameter("the state must be finite and nonzero")
    return psi


def expectation(state, observable):
    """<state| observable |state> for a Hermitian observable; returns a real scalar."""
    obs = np.asarray(observable, dtype=complex)
    if not is_hermitian(obs):
        raise NonHermitianObservable("expectation requires a finite Hermitian observable")
    psi = _state_vector(state)
    val = np.vdot(psi, obs @ psi)
    return float(val.real)


def exact_moments(state, algebra):
    """Exact expectation values of all basis observables."""
    psi = np.asarray(state, dtype=complex)
    vals = np.einsum("i,mij,j->m", psi.conj(), np.asarray(algebra.basis.basis), psi)
    return MomentVector(values=vals.real, source="exact")


def derive_seed(seed, index):
    """Stable 64-bit child seed for stream `index` of master `seed`."""
    ss = np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFFFFFF, int(index)])
    return int(ss.generate_state(1, np.uint64)[0])


def _rng(seed):
    # Counter-based generator: reproducible and cheap to fork by reseeding.
    return np.random.Generator(np.random.Philox(key=int(seed) & 0xFFFFFFFFFFFFFFFF))


def sample_measurements(state, observable, shots, seed, observable_index=0):
    """Simulate Q projective measurements of one observable.

    The observable is eigendecomposed once; Born weights of degenerate
    eigenvalues are pooled per eigenspace, so the outcome distribution never
    depends on an arbitrary eigenvector choice.  The estimate is the sample
    mean of Q i.i.d. eigenvalue draws, realized through a multinomial count
    over the distinct outcomes.

    Returns
    -------
    MeasurementRecord
    """
    if shots < 1:
        raise InvalidParameter(f"shots must be >= 1, got {shots}")
    if shots > np.iinfo(np.int64).max:
        raise ShotCountOverflow(
            f"{shots} shots per observable exceed the sampler's int64 range"
        )
    obs = np.asarray(observable, dtype=complex)
    if not is_hermitian(obs):
        raise NonHermitianObservable("sampling requires a finite Hermitian observable")
    evals, evecs = np.linalg.eigh(obs)
    amps = evecs.conj().T @ _state_vector(state)
    weights = np.abs(amps) ** 2

    scale = max(1.0, float(np.abs(evals).max()))
    outcomes, probs = [], []
    idx = 0
    while idx < evals.size:
        stop = idx + 1
        while stop < evals.size and evals[stop] - evals[idx] <= 1e-10 * scale:
            stop += 1
        outcomes.append(float(evals[idx:stop].mean()))
        probs.append(float(weights[idx:stop].sum()))
        idx = stop
    probs = np.clip(np.array(probs), 0.0, None)
    probs /= probs.sum()

    counts = _rng(seed).multinomial(int(shots), probs)
    estimate = float(np.dot(counts, outcomes) / shots)
    return MeasurementRecord(
        observable_index=int(observable_index),
        num_shots=int(shots),
        estimate=estimate,
        shot_seed=int(seed),
    )


def sample_all_moments(state, algebra, shots, seed):
    """Sampled estimates of every basis observable, with per-observable derived seeds."""
    mats = np.asarray(algebra.basis.basis)
    values = np.empty(algebra.dim)
    for m in range(algebra.dim):
        rec = sample_measurements(state, mats[m], shots, derive_seed(seed, m),
                                  observable_index=m)
        values[m] = rec.estimate
    return MomentVector(values=values, source="sampled", shots=int(shots), seed=int(seed))


class HiddenGcs:
    """Black-box GCS preparation.

    Draws `num_ops` random group operations (alpha from a standard complex
    Gaussian), applies them to the highest-weight state, and hides the
    result.  The synthesis pipeline may only request measurement samples;
    the exact-moment and reference-state oracles exist for test harnesses.
    """

    def __init__(self, algebra, seed, num_ops):
        if num_ops < 0:
            raise InvalidParameter(f"num_ops must be >= 0, got {num_ops}")
        self.algebra = algebra
        self.seed = int(seed)
        self.num_ops = int(num_ops)
        rng = _rng(derive_seed(seed, 0x9E3779B9))
        num_roots = algebra.cartan_weyl.num_roots_L
        ops = []
        for _ in range(self.num_ops):
            l = int(rng.integers(num_roots))
            alpha = complex(rng.standard_normal(), rng.standard_normal()) / np.sqrt(2.0)
            ops.append(GroupOp(l, alpha))
        self._ops = tuple(ops)
        self._state = apply_circuit(algebra.highest_weight[0], ops, algebra)
        self._state.setflags(write=False)

    def sample_moments(self, shots, seed=None):
        """Shot-sampled moment estimates; deterministic given (self.seed, seed)."""
        base = self.seed if seed is None else seed
        return sample_all_moments(self._state, self.algebra, shots, base)

    def exact_moments(self):
        """Exact moments of the hidden state (verification oracle)."""
        return exact_moments(self._state, self.algebra)

    def reference_state(self):
        """The hidden state itself.  Test harness only."""
        return self._state.copy()

    @property
    def preparation_ops(self):
        """The random ops that built the hidden state.  Test harness only."""
        return self._ops


def hidden_gcs(algebra, seed, num_ops):
    """Create a hidden-state handle (see HiddenGcs)."""
    return HiddenGcs(algebra, seed, num_ops)


def state_fidelity(a, b):
    return float(abs(np.vdot(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))))


def phase_min_distance(a, b):
    """min over phi of || a - e^{i phi} b || for unit vectors."""
    return float(np.sqrt(max(0.0, 2.0 - 2.0 * state_fidelity(a, b))))
