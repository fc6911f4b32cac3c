"""Spans recorded from outside the program, by wrapping its public functions.

A `Tracer` replaces each traced function with a wrapper in every `gcsynth`
module that holds it, so calls made inside the library are seen too.  Spans
are kept in memory as [name, start, end, parent, request, note] and written
out once, when the run ends.  While the tracer is disabled a wrapper costs
one attribute test and calls straight through.
"""

import contextlib
import functools
import json
import sys
import time

from gcsynth.states import GroupOp


def _flipped(args, kwargs, result):
    # apply_step returns the plan it used; a different plan means the
    # rotation sense was flipped and the conjugation retried.
    return {"flipped": result[1] != args[1]}


def _steps_over_bound(args, kwargs, result):
    budget = args[2] if len(args) > 2 else kwargs["budget"]
    return {"steps": result.steps_jacobi, "bound": budget.K_prime_bound}


def _reflections(args, kwargs, result):
    return {"reflections": len(result)}


def _gate_kind(args, kwargs, result):
    return {"kind": "group_op" if isinstance(args[0], GroupOp) else "unitary"}


# (defining module, function, note taken from the call) for every layer
# boundary the benchmark times.  The span name is "<layer>.<function>".
TARGETS = (
    ("catalog", "make_so2n", None),
    ("catalog", "make_su2", None),
    ("catalog", "load_algebra", None),
    ("algebra", "orthonormalize_basis", None),
    ("algebra", "assemble_algebra", None),
    ("algebra", "build_cartan_weyl", None),
    ("algebra", "validate_algebra", None),
    ("states", "highest_weight_state", None),
    ("states", "sample_all_moments", None),
    ("states", "apply_circuit", None),
    ("moments", "build_target", None),
    ("pipeline", "make_budget", None),
    ("pipeline", "spectral_gap", None),
    ("pipeline", "synthesize", _steps_over_bound),
    ("pipeline", "verify", None),
    ("diagonalize", "run", None),
    ("diagonalize", "select_pivot", None),
    ("diagonalize", "plan_step", None),
    ("diagonalize", "apply_step", _flipped),
    ("weyl", "top_weight_state", None),
    ("weyl", "reflect_to_highest_weight", _reflections),
    ("lqc", "adjoint_action_of", _gate_kind),
    ("lqc", "propagate", None),
    ("lqc", "gcs_certificate", None),
    ("lqc", "final_state_query", None),
    ("serialize", "save_circuit", None),
    ("serialize", "save_report", None),
)


class Tracer:
    """In-memory span recorder; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans = []
        self.enabled = False
        self.request = None
        self._stack = []
        self._patched = []

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "gcsynth" or name.startswith("gcsynth."))]
        for layer, func, note in TARGETS:
            original = getattr(sys.modules[f"gcsynth.{layer}"], func)
            wrapper = self._wrap(f"{layer}.{func}", original, note)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn, note):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        return wrapper

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent, self.request, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name, request):
        """A root span ("setup" or "request") with tracing on inside it."""
        self.request, self.enabled = request, True
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)
            self.enabled, self.request = False, None

    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _, _), c in zip(self.spans, child)]

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, request, note in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request,
                                     "note": note}, sort_keys=True))
                fh.write("\n")

