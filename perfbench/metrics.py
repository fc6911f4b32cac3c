"""Metric definitions and the arithmetic that turns runs and spans into them.

END_TO_END and PER_LAYER are the single source of the metric names, units
and directions; `BENCHMARK.json` repeats them, and a test keeps the two
equal.  Each per-layer entry also names the end-to-end metric it should
move and on which workload, written down before any change is measured.
"""

from collections import defaultdict
import math
import statistics

from workloads import label

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("throughput_rps", "1/s", "higher", 0.25),
    ("success_rate", "ratio", "higher", 0.01),
    ("circuit_ops_mean", "count", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

STEP_ALGEBRAS = ("su2:1", "su2:2", "su2:3", "su3",
                 "so2n:2", "so2n:3", "so2n:4", "so2n:5", "so2n:6")
LQC_ALGEBRAS = ("so2n:4", "so2n:5")

_SETUP_JE_WO = "setup_s on exact-jacobi and weyl-orbit"
_LQC = "latency_* on lqc-circuits"

# name, unit, better, the end-to-end metric it should move (and where)
PER_LAYER = (
    ("algebra.basis_s", "s", "lower", _SETUP_JE_WO),
    ("algebra.cartan_weyl_s", "s", "lower", _SETUP_JE_WO),
    ("algebra.validate_s", "s", "lower", _SETUP_JE_WO),
    ("catalog.load_algebra_s", "s", "lower", "setup_s on tomo-sampled (su3 file)"),
    ("states.highest_weight_s", "s", "lower", "setup_s on tomo-sampled"),
    ("pipeline.make_budget_s", "s", "lower", "setup_s on every workload"),
    ("diagonalize.step_ms", "ms", "lower", "latency_* on exact-jacobi"),
    *((f"diagonalize.step_ms.{label(a)}", "ms", "lower", "latency_* on exact-jacobi")
      for a in STEP_ALGEBRAS),
    ("diagonalize.step_slope", "1", "lower",
     "latency_* on exact-jacobi (log-log growth of step time in M)"),
    ("diagonalize.steps_per_request", "count", "lower",
     "circuit_ops_mean and latency_* on exact-jacobi"),
    ("diagonalize.steps_over_bound", "ratio", "lower",
     "circuit_ops_mean and latency_* on exact-jacobi (steps / K_prime_bound)"),
    ("diagonalize.flip_retries", "count", "lower",
     "circuit_ops_mean and latency_* on exact-jacobi"),
    ("weyl.top_weight_ms", "ms", "lower", "latency_* on weyl-orbit, not exact-jacobi"),
    ("weyl.walk_ms", "ms", "lower", "latency_* on weyl-orbit, not exact-jacobi"),
    ("weyl.reflections_per_request", "count", "lower",
     "circuit_ops_mean and latency_* on weyl-orbit"),
    ("states.sample_moments_ms", "ms", "lower", "latency_* on tomo-sampled only"),
    ("pipeline.verify_ms", "ms", "lower", "latency_* on every workload"),
    ("lqc.action_group_op_ms", "ms", "lower", _LQC),
    *((f"lqc.action_group_op_ms.{label(a)}", "ms", "lower", _LQC) for a in LQC_ALGEBRAS),
    ("lqc.action_unitary_ms", "ms", "lower", _LQC),
    *((f"lqc.action_unitary_ms.{label(a)}", "ms", "lower", _LQC) for a in LQC_ALGEBRAS),
    ("lqc.propagate_ms", "ms", "lower", _LQC),
    ("lqc.recover_ms", "ms", "lower", _LQC),
    ("serialize.save_circuit_ms", "ms", "lower", "latency_* on exact-jacobi and weyl-orbit"),
    ("serialize.save_report_ms", "ms", "lower", "latency_* on tomo-sampled and lqc-circuits"),
    ("trace.overhead_frac", "ratio", "lower",
     "none: traced over untraced request time, minus one"),
)

# Per workload, the span layer (or span name) whose self time should be the
# largest share of the traced request time.
INTENT = {
    "exact-jacobi": ("layer", "diagonalize"),
    "weyl-orbit": ("layer", "weyl"),
    "tomo-sampled": ("span", "states.sample_all_moments"),
    "lqc-circuits": ("span", "lqc.adjoint_action_of"),
}

TAIL_BEYOND = 10


def tail(latencies):
    """Highest order statistic with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples).  With fewer than TAIL_BEYOND + 1
    samples the maximum is returned.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(0, n - TAIL_BEYOND - 1)
    percentile = 100.0 * rank / (n - 1) if n > 1 else 100.0
    return ordered[rank], percentile, n


def end_to_end(setup_times, latencies, attempted, verified, busy_s, circuit_ops, peak_rss_mb):
    """The END_TO_END metrics of one untraced run, plus details for the report."""
    # With no verified request the latency figures are undefined (null).
    tail_value, tail_pct, n = tail(latencies) if latencies else (None, None, 0)
    values = {
        "setup_s": statistics.median(setup_times),
        "latency_p50_ms": 1e3 * statistics.median(latencies) if latencies else None,
        "latency_tail_ms": 1e3 * tail_value if latencies else None,
        "throughput_rps": verified / busy_s,
        "success_rate": verified / attempted,
        "circuit_ops_mean": statistics.fmean(circuit_ops) if circuit_ops else None,
        "peak_rss_mb": peak_rss_mb,
    }
    details = {"tail_percentile": tail_pct, "tail_samples_beyond": min(TAIL_BEYOND, n),
               "latency_samples": n, "setup_runs_s": setup_times,
               "error_rate": (attempted - verified) / attempted}
    return values, details


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def per_layer(tracer, spec_of, dims, overhead_frac):
    """The PER_LAYER metrics from a traced run's spans.

    spec_of maps each traced request id to its algebra spec and dims each
    spec to its dimension M; spans whose request is "setup" belong to the
    one traced set-up.
    """
    spans = tracer.spans
    durations = defaultdict(list)          # (name, in set-up) -> [s]
    step_s = defaultdict(float)            # spec -> select + plan + apply time
    steps = defaultdict(int)               # spec -> apply_step calls
    notes = defaultdict(list)              # name -> [note]
    actions = defaultdict(list)            # (kind, spec) -> [s]
    for name, start, end, _, request, note in spans:
        dur = end - start
        durations[name, request == "setup"].append(dur)
        if request == "setup":
            continue
        spec = spec_of[request]
        if note is not None:
            notes[name].append(note)
        if name in ("diagonalize.select_pivot", "diagonalize.plan_step",
                    "diagonalize.apply_step"):
            step_s[spec] += dur
            steps[spec] += name == "diagonalize.apply_step"
        if name == "lqc.adjoint_action_of":
            actions[note["kind"], spec].append(dur)

    def setup_total(name):
        return sum(durations[name, True], 0.0)

    def request_ms(name):
        return 1e3 * _mean(durations[name, False])

    values = {
        "algebra.basis_s": setup_total("algebra.orthonormalize_basis"),
        "algebra.cartan_weyl_s": setup_total("algebra.build_cartan_weyl"),
        "algebra.validate_s": setup_total("algebra.validate_algebra"),
        "catalog.load_algebra_s": setup_total("catalog.load_algebra"),
        "states.highest_weight_s": setup_total("states.highest_weight_state"),
        "pipeline.make_budget_s": setup_total("pipeline.make_budget"),
    }

    total_steps = sum(steps.values())
    values["diagonalize.step_ms"] = 1e3 * sum(step_s.values()) / total_steps \
        if total_steps else 0.0
    per_spec_ms = {}
    for spec in STEP_ALGEBRAS:
        ms = 1e3 * step_s[spec] / steps[spec] if steps[spec] else 0.0
        values[f"diagonalize.step_ms.{label(spec)}"] = ms
        if ms > 0:
            per_spec_ms[spec] = ms
    values["diagonalize.step_slope"] = _slope(per_spec_ms, dims)

    requests = len(spec_of)
    values["diagonalize.steps_per_request"] = total_steps / requests if requests else 0.0
    values["diagonalize.steps_over_bound"] = _mean(
        [n["steps"] / n["bound"] for n in notes["pipeline.synthesize"] if n["bound"]])
    values["diagonalize.flip_retries"] = float(
        sum(n["flipped"] for n in notes["diagonalize.apply_step"]))

    values["weyl.top_weight_ms"] = request_ms("weyl.top_weight_state")
    values["weyl.walk_ms"] = request_ms("weyl.reflect_to_highest_weight")
    values["weyl.reflections_per_request"] = _mean(
        [n["reflections"] for n in notes["weyl.reflect_to_highest_weight"]])
    values["states.sample_moments_ms"] = request_ms("states.sample_all_moments")
    values["pipeline.verify_ms"] = request_ms("pipeline.verify")

    for kind in ("group_op", "unitary"):
        every = [d for (k, _), ds in actions.items() if k == kind for d in ds]
        values[f"lqc.action_{kind}_ms"] = 1e3 * _mean(every)
        for spec in LQC_ALGEBRAS:
            values[f"lqc.action_{kind}_ms.{label(spec)}"] = 1e3 * _mean(actions[kind, spec])
    values["lqc.propagate_ms"] = request_ms("lqc.propagate")
    values["lqc.recover_ms"] = request_ms("lqc.final_state_query")
    values["serialize.save_circuit_ms"] = request_ms("serialize.save_circuit")
    values["serialize.save_report_ms"] = request_ms("serialize.save_report")
    values["trace.overhead_frac"] = overhead_frac
    return values


def _slope(ms_by_spec, dims):
    """Least-squares slope of log(step time) against log(M) across algebras."""
    if len(ms_by_spec) < 2:
        return 0.0
    xs = [math.log(dims[spec]) for spec in ms_by_spec]
    ys = [math.log(ms) for ms in ms_by_spec.values()]
    return statistics.linear_regression(xs, ys).slope


def self_shares(tracer):
    """Share of traced request time spent in each layer and each span, by self time."""
    selfs = tracer.self_times()
    by_layer, by_span = defaultdict(float), defaultdict(float)
    total = 0.0
    for (name, start, end, parent, request, _), own in zip(tracer.spans, selfs):
        if request == "setup":
            continue
        if parent is None:
            total += end - start
        by_span[name] += own
        by_layer["bench" if name == "request" else name.split(".")[0]] += own
    if total <= 0:
        return {}, {}
    return ({k: v / total for k, v in sorted(by_layer.items())},
            {k: v / total for k, v in sorted(by_span.items())})


def intent_met(workload_name, layer_share, span_share):
    kind, key = INTENT[workload_name]
    shares = layer_share if kind == "layer" else span_share
    return bool(shares) and max(shares, key=shares.get) == key
