"""gcsynth benchmark: one seeded workload per run, closed loop, one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact-jacobi --seed 1 --seconds 10 --trace 0

With --trace 0 the run sets up SETUP_REPEATS times (the median is
`setup_s`), each set-up followed by a block of requests sent one at a time,
each verified before the next is sent, for --seconds of request time in
all; it reports the end-to-end metrics.  With --trace 1 it sets up once
under the tracer and runs every request twice, untraced and traced in
alternating order, requiring both to emit the same circuit; it reports the
per-layer metrics and writes the spans to perfbench/_runs/.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the line before it holds
the details (environment, tail percentile, errors, artifact hash, self-time
shares).  Every request's circuit or report is written with `serialize`,
and the sha256 over the first ARTIFACT_REQUESTS of them is printed; it
depends on the seed alone.
"""

import argparse
from collections import Counter
import ctypes
import glob
import hashlib
import json
import os
from pathlib import Path
import platform
import resource
import shutil
import sys
import tempfile
import time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
ARTIFACT_REQUESTS = 16


def import_program():
    """Import gcsynth from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "gcsynth" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gcsynth sources under {src}")
    sys.path.insert(0, str(src))
    import gcsynth
    if Path(gcsynth.__file__).resolve().parent != (src / "gcsynth").resolve():
        sys.exit(f"perfbench: imported gcsynth from {gcsynth.__file__}, not {src}")


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _blas_threads(np):
    """OpenBLAS's own thread count, read through its C API; None if unavailable."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def artifact_path(outdir, index):
    return outdir / f"{index:06d}.json"


def artifact_hash(outdir, count):
    """sha256 over the names and bytes of the first `count` request artifacts."""
    digest = hashlib.sha256()
    for index in range(count):
        path = artifact_path(outdir, index)
        digest.update(path.name.encode())
        digest.update(path.read_bytes() if path.exists() else b"<missing>")
    return digest.hexdigest()


class Loop:
    """Closed-loop client: one request at a time, verified before the next is sent."""

    def __init__(self, workload, ctx, seed, outdir):
        self.workload, self.ctx, self.seed, self.outdir = workload, ctx, seed, outdir
        self.attempted = 0
        self.errors = Counter()
        self.latencies = []
        self.circuit_ops = []
        self.busy = 0.0

    def send(self, request):
        """Run one request; returns (Outcome or the exception it raised, seconds)."""
        path = artifact_path(self.outdir, request.index)
        start = time.perf_counter()
        try:
            outcome = self.workload.run(self.ctx, request, path)
        except Exception as exc:  # a failed request is counted, not fatal
            outcome = exc
        return outcome, time.perf_counter() - start

    def record(self, outcome, seconds):
        self.attempted += 1
        self.busy += seconds
        if isinstance(outcome, Exception):
            self.errors[type(outcome).__name__] += 1
            return
        failure = outcome.failure()
        if failure is not None:
            self.errors["verification"] += 1
            print(f"perfbench: request {self.attempted - 1}: {failure}", file=sys.stderr)
            return
        self.latencies.append(seconds)
        self.circuit_ops.append(outcome.circuit_ops)

    @property
    def failed(self):
        return sum(self.errors.values())


def run_untraced(workload, loop, seconds):
    """Send requests until the loop has been busy for `seconds` in all."""
    while loop.busy < seconds or loop.attempted < ARTIFACT_REQUESTS:
        loop.record(*loop.send(workload.request(loop.ctx, loop.seed, loop.attempted)))


def run_traced(workload, loop, seconds, tracer):
    """Every request untraced and traced, alternating which goes first."""
    spec_of, mismatches = {}, 0
    plain_s = traced_s = 0.0
    index = 0
    while loop.busy < seconds or index < ARTIFACT_REQUESTS:
        request = workload.request(loop.ctx, loop.seed, index)
        results = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                with tracer.root("request", index):
                    results[traced] = loop.send(request)
            else:
                results[traced] = loop.send(request)
        plain, traced = results[False], results[True]
        plain_s += plain[1]
        traced_s += traced[1]
        spec_of[index] = request.spec
        loop.record(*traced)
        if _fingerprint(plain[0]) != _fingerprint(traced[0]):
            mismatches += 1
            print(f"perfbench: request {index}: traced run differs from synthesize",
                  file=sys.stderr)
        index += 1
    return spec_of, mismatches, traced_s / plain_s - 1.0


def _fingerprint(outcome):
    if isinstance(outcome, Exception):
        return ("raised", type(outcome).__name__)
    return outcome.fingerprint()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One client on one BLAS thread: helper threads on matrices this small
    # add contention noise, not speed.  An explicit setting is kept.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    import_program()
    sys.path.insert(0, str(HERE))
    import metrics
    import su3def
    import tracing
    from workloads import WORKLOADS, set_up

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    (HERE / "_runs").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=HERE / "_runs"))
    try:
        su3_path = su3def.write_su3(workdir / "su3.json")
        outdir = workdir / "artifacts"
        outdir.mkdir()
        details = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
                   "why": workload.why, "env": environment()}

        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                with tracer.root("setup", "setup"):
                    ctx = set_up(workload, su3_path)
                loop = Loop(workload, ctx, args.seed, outdir)
                spec_of, mismatches, overhead = run_traced(
                    workload, loop, args.seconds, tracer)
            finally:
                tracer.uninstall()
            dims = {spec: algebra.dim for spec, algebra in ctx.algebras.items()}
            values = metrics.per_layer(tracer, spec_of, dims, overhead)
            layer_share, span_share = metrics.self_shares(tracer)
            trace_path = HERE / "_runs" / f"trace-{workload.name}-seed{args.seed}.jsonl"
            tracer.write(trace_path)
            details.update(matches_synthesize=mismatches == 0, mismatches=mismatches,
                           self_share_by_layer=layer_share, self_share_by_span=span_share,
                           intent_met=metrics.intent_met(workload.name, layer_share,
                                                         span_share),
                           spans=len(tracer.spans), trace_file=str(trace_path.relative_to(ROOT)))
            details["layer_moves"] = {name: moves for name, _, _, moves in metrics.PER_LAYER}
            units = {name: unit for name, unit, _, _ in metrics.PER_LAYER}
            correct = loop.failed == 0 and mismatches == 0
        else:
            # One block of requests follows each set-up, so that the timed
            # phase samples the host's speed at several moments, not one.
            loop = Loop(workload, None, args.seed, outdir)
            setup_times = []
            for block in range(1, SETUP_REPEATS + 1):
                start = time.perf_counter()
                loop.ctx = set_up(workload, su3_path)
                setup_times.append(time.perf_counter() - start)
                run_untraced(workload, loop, args.seconds * block / SETUP_REPEATS)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values, more = metrics.end_to_end(
                setup_times, loop.latencies, loop.attempted, loop.attempted - loop.failed,
                loop.busy, loop.circuit_ops, peak_rss_mb)
            details.update(more)
            units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
            correct = loop.failed == 0

        details.update(errors=dict(loop.errors), artifact_count=ARTIFACT_REQUESTS,
                       artifact_sha256=artifact_hash(outdir, ARTIFACT_REQUESTS))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
