"""Exact dense-vector state engine on the defining representation.

Provides group-element application, exact moments, seeded shot sampling
of all M basis observables, and the hidden black-box source used to
exercise the synthesis pipeline.  The highest-weight state itself is
derived and cached by `Algebra.highest_weight`.  A group operation acts on
a state through `RootImages.rotate` on the defining representation
(`CartanWeylData.defining`), a few matrix-vector products, O(d^2): no
unitary and no eigendecomposition.  Sampling reads the eigenbases
`AlgebraBasis.measurement_basis` computes once per algebra; a seed, a
shot count or an op count is an integer (never a boolean), a seed one in
[0, 2^64), never reduced modulo 2^64.  Observable m of seed s draws on Philox keyed by
`derive_seed(s, m)`, SeedSequence([s, m])'s first uint64, at counter zero.
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
    # Counter-based: a new stream is a new key.  `seed` is a uint64.
    return np.random.Generator(np.random.Philox(key=seed))


# numpy's SeedSequence (numpy/random/bit_generator.pyx): hashmix call k xors with
# A_k = 0x43b0d7e5 0x931e8875^k mod 2^32, multiplies by A_(k+1) (output word i: B_i
# alike); calls 0-3 hash the pool, row s feeds row d by 4 + 3 s + d - (d > s), d = s unused.
_A, _B = ([init * pow(mult, k, 2 ** 32) % 2 ** 32 for k in range(18)]
          for init, mult in ((0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)))
_STAGES = [(_A, range(4))] + [(_A, [4 + 3 * s + d - (d > s) for d in range(4)]) for s in range(4)]
_KEY_CONSTANTS = np.array([[[16]] * 4, [[0xCA01F9DD]] * 4, [[0x4973F715]] * 4] + [  # shift, mix
    [[table[k + j]] for k in calls]  # per stage, each row's hashmix xor (j = 0) and multiplier
    for table, calls in _STAGES + [(_B, [0, 1, 0, 1])] for j in (0, 1)], dtype=np.uint32)


def _child_keys(seed, count):
    """`derive_seed(seed, m)` for every m < count in one pass, bit for bit: the
    SeedSequence pools side by side, (4, count) uint32, are hashed, each row is
    mixed into the other three at once, and the output words are hashed, all on
    constants widened to the pool's shape (numpy combines equal shapes fastest)."""
    seed = _seed(seed)
    shift, left, right, *hashes = np.repeat(_KEY_CONSTANTS, count, axis=2)
    pool = np.zeros((4, count), dtype=np.uint32)  # entropy: the seed's 32-bit words, then m
    pool[0], pool[1] = seed % 2 ** 32, seed >> 32
    pool[1 + (seed >= 2 ** 32)] = np.arange(count)
    for src, xor, mul in zip([None, 0, 1, 2, 3, None], hashes[::2], hashes[1::2]):
        hashed = xor ^ (pool if src is None else pool[src])
        hashed *= mul
        hashed ^= hashed >> shift
        if src is not None:
            hashed = pool * left - hashed * right
            hashed ^= hashed >> shift
            hashed[src] = pool[src]
        pool = hashed
    return [low | high << 32 for low, high in zip(pool[0].tolist(), pool[1].tolist())]


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
    of `shots` draws of its outcomes on Philox keyed by `derive_seed(seed, m)`,
    at counter zero: one generator, rekeyed per stream from one `_child_keys`
    pass.  The eigenbases come from `AlgebraBasis.measurement_basis`, cached
    per algebra, so one product gives all M Born distributions, each pooled
    per eigenspace."""
    shots = integer_argument(shots, "shots", 1)
    if shots > np.iinfo(np.int64).max:
        raise ShotCountOverflow(f"{shots} shots per observable exceed the sampler's int64 range")
    vh, outcomes, sizes, counts, ends = algebra.basis.measurement_basis
    weights = (np.abs(vh @ _state_vector(state)) ** 2).ravel()
    probs = np.clip(_run_sums(weights, sizes), 0.0, None)
    probs /= np.repeat(_run_sums(probs, counts), counts)
    rng = _rng(0)
    stream = rng.bit_generator.state  # as built: counter zero, buffer spent
    values = []
    for key, o, end in zip(_child_keys(seed, algebra.dim), outcomes, ends):
        stream["state"]["key"][0] = key
        rng.bit_generator.state = stream
        values.append(float(np.dot(rng.multinomial(shots, probs[end - o.size:end]), o)
                            / shots))
    return MomentVector(values=np.array(values), source="sampled", shots=shots,
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
        self._ops = tuple(
            GroupOp(int(rng.integers(num_roots)),
                    complex(rng.standard_normal(), rng.standard_normal()) / np.sqrt(2.0))
            for _ in range(self.num_ops))
        self._state = apply_circuit(algebra.highest_weight[0], self._ops, algebra)
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
