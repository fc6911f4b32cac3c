"""Exact dense-vector state engine on the defining representation.

Provides group-element application, exact moments, seeded shot sampling
of all M basis observables, and the hidden black-box source used to
exercise the synthesis pipeline.  The highest-weight state itself is
derived and cached by `Algebra.highest_weight`.  A group operation acts on
a state through `RootImages.rotate` on the defining representation
(`CartanWeylData.defining`), a few matrix-vector products, O(d^2): no
unitary and no eigendecomposition.  Sampling reads the eigenbases
`AlgebraBasis.measurement_basis` computes once per algebra; a seed or an
op count is an integer (never a boolean), a seed one in [0, 2^64), never
reduced modulo 2^64.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, NonFiniteGate, ShotCountOverflow, integer_argument
from .moments import MomentVector


@dataclass(frozen=True)
class GroupOp:
    """One displacement exponential exp{i(alpha E+_l + alpha* E-_l)}."""

    root_index: int
    alpha: complex

    def __post_init__(self):
        if not np.isfinite(self.alpha):
            raise NonFiniteGate(f"group-op exponent alpha = {self.alpha} is not finite")


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


def exact_moments(state, algebra):
    """Exact expectation values of all basis observables."""
    psi = np.asarray(state, dtype=complex)
    vals = np.einsum("i,mij,j->m", psi.conj(), np.asarray(algebra.basis.basis), psi)
    return MomentVector(values=vals.real, source="exact")


def _seed(seed):
    """The seed as an int; InvalidParameter unless it is an integer in [0, 2^64)."""
    return integer_argument(seed, "seed", 0, 2 ** 64 - 1, "an integer in [0, 2^64)")


def derive_seed(seed, index):
    """Stable 64-bit child seed for stream `index` of master `seed`."""
    ss = np.random.SeedSequence([_seed(seed), int(index)])
    return int(ss.generate_state(1, np.uint64)[0])


def _rng(seed):
    # Counter-based generator: reproducible and cheap to fork by reseeding.
    # Every seed here comes from `derive_seed`, a uint64 by construction.
    return np.random.Generator(np.random.Philox(key=seed))


def _run_sums(values, sizes):
    """Sums of the consecutive runs of `values` of the given sizes, each added as
    `ndarray.sum` adds it alone, which `np.add.reduceat` does not: the runs of
    one size are gathered as rows and summed along them."""
    ends = np.cumsum(sizes)
    out = np.empty(ends.size)
    for n in np.unique(sizes):
        runs = sizes == n
        out[runs] = values[(ends[runs] - n)[:, None] + np.arange(n)].sum(axis=1)
    return out


def sample_all_moments(state, algebra, shots, seed):
    """Sampled estimates of every basis observable: observable m's is the mean
    of `shots` draws of its outcomes, on the stream `derive_seed(seed, m)`.
    The eigenbases come from `AlgebraBasis.measurement_basis`, cached per
    algebra, so a request runs no eigendecomposition and one product gives all
    M Born distributions, each pooled per eigenspace."""
    if shots < 1:
        raise InvalidParameter(f"shots must be >= 1, got {shots}")
    if shots > np.iinfo(np.int64).max:
        raise ShotCountOverflow(f"{shots} shots per observable exceed the sampler's int64 range")
    vh, outcomes, sizes = algebra.basis.measurement_basis
    weights = (np.abs(vh @ _state_vector(state)) ** 2).ravel()
    probs = np.clip(_run_sums(weights, sizes), 0.0, None)
    counts = np.array([o.size for o in outcomes])
    probs /= np.repeat(_run_sums(probs, counts), counts)
    seeds = (derive_seed(seed, m) for m in range(algebra.dim))
    values = [float(np.dot(_rng(s).multinomial(int(shots), probs[end - o.size:end]), o) / shots)
              for s, o, end in zip(seeds, outcomes, np.cumsum(counts))]
    return MomentVector(values=np.array(values), source="sampled", shots=int(shots),
                        seed=int(seed))


class HiddenGcs:
    """Black-box GCS preparation.

    Draws `num_ops` random group operations (alpha from a standard complex
    Gaussian), applies them to the highest-weight state, and hides the
    result.  The synthesis pipeline may only request measurement samples;
    the exact moments and the reference state serve the exact-moment demo
    and the verification of a synthesized circuit (`tomo-sim`, `verify`).
    """

    def __init__(self, algebra, seed, num_ops):
        self.num_ops = integer_argument(num_ops, "num_ops", 0)
        self.algebra = algebra
        self.seed = _seed(seed)
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
        """The hidden state itself, the reference that `verify` compares against."""
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
