"""The four benchmark workloads: seeded inputs, one request each, and its check.

Every workload is a closed loop with one client.  Request i of a run is
built from `numpy.random.default_rng([seed, i])` alone, so a seed fixes the
whole request stream whatever the run length.  The algebra of request i is
`cycle[i % len(cycle)]`, a fixed mix, so that only the hidden states vary
with the seed.  Input generation and the checks run outside the timed
request; the request itself calls only the public API of `gcsynth`, looked
up on its modules at call time so that a tracer's wrappers see every call.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from gcsynth import catalog, lqc, pipeline, serialize, states
from gcsynth.moments import MomentVector

EXACT_BOUND = 1e-5      # phase-minimized distance for exact moments
LQC_MOMENT_BOUND = 1e-9  # propagated vs brute-force final moments


@dataclass
class Request:
    index: int
    spec: str
    payload: dict


@dataclass
class Outcome:
    reports: list
    distance: float
    bound: float
    moment_error: float = 0.0
    certified: bool = True

    @property
    def circuit_ops(self):
        return sum(len(r.ops) for r in self.reports)

    def failure(self):
        """Why the outcome misses its bound, or None when it is verified.

        Written as `not x <= bound` so that a NaN misses every bound.
        """
        if not self.distance <= self.bound:
            return f"distance {self.distance:.3e} > {self.bound:.1e}"
        if not self.moment_error <= LQC_MOMENT_BOUND:
            return f"final moments off brute force by {self.moment_error:.3e}"
        if not self.certified:
            return "final moments fail the GCS purity certificate"
        return None

    def fingerprint(self):
        """What synthesize emitted: ops, kind tags and the d-trace, exactly."""
        return [(tuple((op.root_index, op.alpha) for op in r.ops),
                 tuple(r.kind_tags), tuple(r.trace)) for r in self.reports]


@dataclass
class Context:
    """Algebras and budgets built by one set-up, keyed by spec."""

    algebras: dict = field(default_factory=dict)
    budgets: dict = field(default_factory=dict)


def build_algebra(spec, su3_path):
    """Build one algebra through the public constructors ("su3" loads the file)."""
    if spec == "su3":
        return catalog.load_algebra(su3_path)
    name, _, param = spec.partition(":")
    build = {"su2": catalog.make_su2, "so2n": catalog.make_so2n}[name]
    return build(int(param))


def label(spec):
    """Metric-name form of an algebra spec: "so2n:6" -> "so2n-6"."""
    return spec.replace(":", "-")


def _child_seed(rng):
    return int(rng.integers(2 ** 62))


# ---------------------------------------------------------------------------
# Request bodies shared by workloads
# ---------------------------------------------------------------------------

def _synthesize_exact(ctx, req, path):
    algebra, budget = ctx.algebras[req.spec], ctx.budgets[req.spec]
    report = pipeline.synthesize(req.payload["moments"], algebra, budget)
    check = pipeline.verify(report, req.payload["reference"], algebra)
    serialize.save_circuit(report.ops, report.kind_tags, report.trace,
                           report.algebra_label, path)
    return Outcome(reports=[report], distance=check.distance, bound=EXACT_BOUND)


# ---------------------------------------------------------------------------
# exact-jacobi
# ---------------------------------------------------------------------------

def _make_exact(ctx, spec, rng, turn, param):
    handle = states.hidden_gcs(ctx.algebras[spec], seed=_child_seed(rng), num_ops=20)
    return {"moments": handle.exact_moments(), "reference": handle.reference_state()}


# ---------------------------------------------------------------------------
# weyl-orbit
# ---------------------------------------------------------------------------

def _make_weyl(ctx, spec, rng, turn, param):
    """A weight state j effective pi-reflections below |hw>, j = 0..rank/2 by turn.

    Random root reflections are applied to |hw>, and one is kept only when it
    lowers the weight's overlap with the highest weight, so that the walk
    back has a length set by j rather than by chance.
    """
    algebra = ctx.algebras[spec]
    cw = algebra.cartan_weyl
    csa = list(cw.csa_indices)
    hw, w_hw = states.highest_weight_state(algebra)
    state, overlap = hw, float(np.dot(w_hw, w_hw))
    for _ in range(turn % (cw.rank_R // 2 + 1)):
        for _ in range(100 * cw.num_roots_L):
            root = int(rng.integers(cw.num_roots_L))
            op = states.GroupOp(root, math.pi / math.sqrt(2.0 * cw.root_triples[root].eta))
            candidate = states.apply_circuit(state, [op], algebra)
            weights = states.exact_moments(candidate, algebra).values[csa]
            if float(np.dot(weights, w_hw)) < overlap - 1e-6:
                state, overlap = candidate, float(np.dot(weights, w_hw))
                break
        else:
            raise RuntimeError(f"no reflection lowers the weight of {spec}")
    return {"moments": states.exact_moments(state, algebra), "reference": state}


# ---------------------------------------------------------------------------
# tomo-sampled
# ---------------------------------------------------------------------------

def _make_tomo(ctx, spec, rng, turn, param):
    handle = states.hidden_gcs(ctx.algebras[spec], seed=_child_seed(rng), num_ops=5)
    return {"handle": handle, "shot_seed": _child_seed(rng),
            "reference": handle.reference_state()}


def _run_tomo(ctx, req, path):
    algebra, budget = ctx.algebras[req.spec], ctx.budgets[req.spec]
    report = pipeline.synthesize(req.payload["handle"], algebra, budget,
                                 seed=req.payload["shot_seed"])
    check = pipeline.verify(report, req.payload["reference"], algebra)
    serialize.save_report(report, path)
    return Outcome(reports=[report], distance=check.distance, bound=budget.epsilon)


# ---------------------------------------------------------------------------
# lqc-circuits
# ---------------------------------------------------------------------------

def _expi(h):
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def _make_lqc(ctx, spec, rng, turn, num_gates):
    """Gates alternating GroupOp / explicit group unitary, with a brute-force oracle.

    The first gate's kind alternates by turn, so a one-gate circuit is a
    GroupOp on every other turn rather than by chance.

    The oracle propagates the 2^n-dimensional state gate by gate and takes
    its exact moments; it shares no code with `lqc`.
    """
    algebra = ctx.algebras[spec]
    cw = algebra.cartan_weyl
    mats = np.asarray(algebra.basis.basis)
    hw, _ = states.highest_weight_state(algebra)
    state = np.asarray(hw, dtype=complex)
    gates = []
    for g in range(num_gates):
        if (g + turn) % 2 == 0:
            root = int(rng.integers(cw.num_roots_L))
            alpha = complex(rng.standard_normal(), rng.standard_normal()) / math.sqrt(2.0)
            gate = states.GroupOp(root, alpha)
            unitary = _expi(alpha * cw.raising_ops[root]
                            + np.conj(alpha) * cw.lowering_ops[root])
        else:
            coeffs = 0.5 * rng.standard_normal(algebra.dim)
            unitary = _expi(np.einsum("m,mij->ij", coeffs, mats))
            gate = unitary
        gates.append(gate)
        state = unitary @ state

    def moments_of(psi):
        return np.einsum("i,mij,j->m", psi.conj(), mats, psi).real

    initial = MomentVector(values=moments_of(np.asarray(hw, dtype=complex)))
    return {"gates": gates, "initial": initial, "reference": state,
            "final_moments": moments_of(state)}


def _run_lqc(ctx, req, path):
    algebra, budget = ctx.algebras[req.spec], ctx.budgets[req.spec]
    actions = [lqc.adjoint_action_of(gate, algebra) for gate in req.payload["gates"]]
    final = lqc.propagate(lqc.LqcCircuit(actions=actions, initial=req.payload["initial"]))
    certified, _ = lqc.gcs_certificate(final, algebra)
    report = lqc.final_state_query(final, algebra, budget)
    check = pipeline.verify(report, req.payload["reference"], algebra)
    serialize.save_report(report, path)
    error = float(np.abs(final.values - req.payload["final_moments"]).max())
    return Outcome(reports=[report], distance=check.distance, bound=EXACT_BOUND,
                   moment_error=error, certified=certified)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cycle: tuple          # (spec, per-request parameter) in request order
    epsilon: float
    delta: float
    make: callable        # (ctx, spec, rng, turn, param) -> payload
    run: callable         # (ctx, request, artifact path) -> Outcome

    @property
    def specs(self):
        return tuple(dict.fromkeys(spec for spec, _ in self.cycle))

    def request(self, ctx, seed, index):
        spec, param = self.cycle[index % len(self.cycle)]
        rng = np.random.default_rng([int(seed), int(index)])
        turn = index // len(self.cycle)
        return Request(index, spec, self.make(ctx, spec, rng, turn, param))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="exact-jacobi",
        why="exact-moment synthesize+verify of 20-op hidden states on su3 and so2n:3-6: "
            "the Jacobi phase does nearly all the work, the Weyl walk rarely fires, no sampling",
        cycle=tuple((spec, None) for spec in ("so2n:6", "so2n:6", "so2n:6", "so2n:5",
                                              "so2n:5", "so2n:4", "so2n:3", "su3")),
        epsilon=1e-6, delta=0.05,
        make=_make_exact,
        run=_synthesize_exact,
    ),
    Workload(
        name="weyl-orbit",
        why="exact moments of Weyl-orbit weight states on so2n:4-6: zero Jacobi steps, "
            "so the Weyl walk dominates; bypasses diagonalize as exact-jacobi bypasses weyl",
        cycle=(("so2n:6", None), ("so2n:6", None), ("so2n:5", None), ("so2n:4", None)),
        epsilon=1e-6, delta=0.05,
        make=_make_weyl,
        run=_synthesize_exact,
    ),
    Workload(
        name="tomo-sampled",
        why="shot-sampled tomography at eps 0.1 on su2:1-3, su3, so2n:2-5: sampling is "
            "the largest share, Jacobi runs few steps on noisy moments, per-call overhead rules",
        cycle=tuple((spec, None) for spec in ("su2:1", "su2:2", "su2:3", "su3", "so2n:2",
                                              "so2n:3", "so2n:4", "so2n:5", "so2n:5")),
        epsilon=0.1, delta=0.05,
        make=_make_tomo,
        run=_run_tomo,
    ),
    Workload(
        name="lqc-circuits",
        why="LQC circuits from |hw> on so2n:4-5 mixing GroupOp and unitary gates, then "
            "recovery: gate-action building dominates; the only workload that reaches lqc",
        cycle=(("so2n:4", 6), ("so2n:4", 6), ("so2n:5", 1)),
        epsilon=1e-6, delta=0.05,
        make=_make_lqc,
        run=_run_lqc,
    ),
)}


def set_up(workload, su3_path):
    """Build and validate every algebra of the workload, then its first budget."""
    ctx = Context()
    for spec in workload.specs:
        algebra = build_algebra(spec, su3_path)
        ctx.algebras[spec] = algebra
        ctx.budgets[spec] = pipeline.make_budget(workload.epsilon, workload.delta, algebra)
    return ctx
