"""Tests of the benchmark itself, on small algebras so they run in seconds."""

import dataclasses
import json
from pathlib import Path
import re
import sys

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import metrics  # noqa: E402
import run  # noqa: E402
import su3def  # noqa: E402
import tracing  # noqa: E402
from gcsynth.moments import MomentVector  # noqa: E402
from workloads import WORKLOADS, set_up  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

# Each workload's request generator and body, on algebras that build in ms.
SMALL_CYCLES = {
    "exact-jacobi": (("so2n:3", None), ("su3", None)),
    "weyl-orbit": (("so2n:3", None), ("so2n:4", None)),
    "tomo-sampled": (("su2:1", None), ("su3", None), ("so2n:2", None)),
    "lqc-circuits": (("so2n:3", 2),),
}


def small(name):
    return dataclasses.replace(WORKLOADS[name], cycle=SMALL_CYCLES[name])


@pytest.fixture(scope="module")
def su3_path(tmp_path_factory):
    return su3def.write_su3(tmp_path_factory.mktemp("su3") / "su3.json")


def run_requests(workload, ctx, seed, count, outdir):
    outdir.mkdir()
    loop = run.Loop(workload, ctx, seed, outdir)
    for index in range(count):
        loop.record(*loop.send(workload.request(ctx, seed, index)))
    return loop, run.artifact_hash(outdir, count)


@pytest.mark.parametrize("name", sorted(SMALL_CYCLES))
def test_same_seed_same_inputs_and_artifacts(name, su3_path, tmp_path):
    workload = small(name)
    ctx = set_up(workload, su3_path)
    first = [workload.request(ctx, 7, i).payload["reference"] for i in range(16)]
    again = [workload.request(ctx, 7, i).payload["reference"] for i in range(16)]
    other = [workload.request(ctx, 8, i).payload["reference"] for i in range(16)]
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not all(np.array_equal(a, b) for a, b in zip(first, other))

    loop_a, hash_a = run_requests(workload, ctx, 7, 16, tmp_path / "a")
    loop_b, hash_b = run_requests(workload, set_up(workload, su3_path), 7, 16, tmp_path / "b")
    _, hash_c = run_requests(workload, ctx, 8, 16, tmp_path / "c")
    assert loop_a.failed == loop_b.failed == 0
    assert hash_a == hash_b != hash_c


def test_metric_names_match_pattern():
    names = [m[0] for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_benchmark_json_matches_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in metrics.END_TO_END]
    assert spec["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, _ in metrics.PER_LAYER]
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]


def test_bad_request_counts_as_error(su3_path, tmp_path):
    workload = small("exact-jacobi")
    ctx = set_up(workload, su3_path)
    loop = run.Loop(workload, ctx, 3, tmp_path)
    bad = workload.request(ctx, 3, 0)
    values = np.array(bad.payload["moments"].values)
    values[0] = np.nan
    bad.payload["moments"] = MomentVector(values=values)
    loop.record(*loop.send(bad))
    loop.record(*loop.send(workload.request(ctx, 3, 1)))
    assert (loop.attempted, loop.failed) == (2, 1)
    values, details = metrics.end_to_end(
        [1.0], loop.latencies, loop.attempted, loop.attempted - loop.failed,
        loop.busy, loop.circuit_ops, 1.0)
    assert details["error_rate"] == 0.5
    assert values["success_rate"] == 0.5


@pytest.mark.parametrize("name", ["exact-jacobi", "lqc-circuits"])
def test_traced_run_reproduces_synthesize(name, su3_path, tmp_path):
    workload = small(name)
    plain_loop, plain_hash = run_requests(
        workload, set_up(workload, su3_path), 5, run.ARTIFACT_REQUESTS, tmp_path / "plain")

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.root("setup", "setup"):
            ctx = set_up(workload, su3_path)
        outdir = tmp_path / "traced"
        outdir.mkdir()
        loop = run.Loop(workload, ctx, 5, outdir)
        spec_of, mismatches, overhead = run.run_traced(workload, loop, 0.0, tracer)
    finally:
        tracer.uninstall()

    assert mismatches == 0 and loop.failed == 0
    assert run.artifact_hash(outdir, run.ARTIFACT_REQUESTS) == plain_hash
    dims = {spec: algebra.dim for spec, algebra in ctx.algebras.items()}
    values = metrics.per_layer(tracer, spec_of, dims, overhead)
    assert set(values) == {m[0] for m in metrics.PER_LAYER}
    assert values["pipeline.verify_ms"] > 0
    assert values["diagonalize.flip_retries"] == 0
    self_times = tracer.self_times()
    assert all(t >= -1e-9 for t in self_times)


def test_tail_has_ten_samples_beyond():
    value, percentile, n = metrics.tail(list(range(100)))
    assert value == 89 and n == 100
    assert sum(x > value for x in range(100)) == metrics.TAIL_BEYOND
    assert metrics.tail([3.0])[0] == 3.0
