"""JSON artifact formats: algebras, moments, circuits, LQC circuits, reports.

All matrices are row-major nested lists of [re, im] pairs.  Root indices in
circuit files are 0-based.  Writers emit sorted keys so equal inputs give
byte-identical artifacts.
"""

import dataclasses
import json
import sys

import numpy as np

from .errors import ParseError
from .moments import MomentVector, require_finite
from .states import GroupOp


def _matrix_to_json(mat):
    mat = np.asarray(mat, dtype=complex)
    return [[[float(entry.real), float(entry.imag)] for entry in row] for row in mat]


def _matrix_from_json(data, context="matrix"):
    try:
        arr = np.asarray(data, dtype=float)
        if not all(_is_number(x) for row in data for pair in row for x in pair):
            raise TypeError("booleans and strings are not numbers")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{context}: entries must be [re, im] pairs of numbers") from exc
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ParseError(f"{context}: expected a square matrix of [re, im] pairs")
    with np.errstate(invalid="ignore"):  # 1j * inf; callers reject non-finite entries
        return arr[:, :, 0] + 1j * arr[:, :, 1]


def _dump(obj, path):
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc


def _require(data, keys, context):
    if not isinstance(data, dict):
        raise ParseError(f"{context}: expected a JSON object")
    missing = [k for k in keys if k not in data]
    if missing:
        raise ParseError(f"{context}: missing keys {missing}")


def _list(data, key, context):
    """data[key] if it is a JSON list, else ParseError."""
    if not isinstance(data[key], list):
        raise ParseError(f"{context}: {key} must be a list")
    return data[key]


def _is_number(value):
    """True for a JSON number a float can hold; booleans are not numbers here."""
    return isinstance(value, float) or (isinstance(value, int) and not isinstance(value, bool)
                                        and abs(value) <= sys.float_info.max)


def _is_index(value):
    """True for a JSON integer (not a boolean)."""
    return _is_number(value) and isinstance(value, int)


def _numbers(data, key, context):
    """data[key] as a float array if it is a JSON list of numbers, else ParseError."""
    values = data[key]
    if not isinstance(values, list) or not all(_is_number(v) for v in values):
        raise ParseError(f"{context}: {key} must be a list of numbers")
    return np.array(values, dtype=float)


def _count(data, key, context):
    """data.get(key) if it is null or a non-negative integer, else ParseError."""
    value = data.get(key)
    if not (value is None or (_is_index(value) and value >= 0)):
        raise ParseError(f"{context}: {key} must be a non-negative integer or null")
    return value


# ---------------------------------------------------------------------------
# Algebra definition files
# ---------------------------------------------------------------------------

def algebra_to_dict(algebra):
    return {
        "rep_dim": int(algebra.rep_dim),
        "normalization": float(algebra.norm),
        "csa": [int(i) for i in algebra.cartan_weyl.csa_indices],
        "root_pairs": [[int(u), int(v)] for u, v in algebra.cartan_weyl.pair_map],
        "basis": [_matrix_to_json(m) for m in np.asarray(algebra.basis.basis)],
        "name": algebra.label(),
    }


def save_algebra(algebra, path):
    _dump(algebra_to_dict(algebra), path)


def parse_algebra_dict(data, context="algebra file"):
    """Raw pieces from an algebra definition; validation happens on assembly."""
    _require(data, ["rep_dim", "normalization", "csa", "root_pairs", "basis"], context)
    rep_dim = data["rep_dim"]
    if not (_is_index(rep_dim) and rep_dim >= 1):
        raise ParseError(f"{context}: rep_dim must be a positive integer")
    norm = data["normalization"]
    if not (norm is None or (_is_number(norm) and 0 < norm < np.inf)):
        raise ParseError(f"{context}: normalization must be positive and finite, or null")
    mats = [_matrix_from_json(m, context=f"{context}: basis[{k}]")
            for k, m in enumerate(_list(data, "basis", context))]
    if any(m.shape != (rep_dim, rep_dim) for m in mats):
        raise ParseError(f"{context}: basis matrices must be rep_dim x rep_dim")
    if not all(np.isfinite(m).all() for m in mats):
        raise ParseError(f"{context}: basis entries must be finite")
    csa, pairs = data["csa"], data["root_pairs"]
    if not isinstance(csa, list) or not all(_is_index(i) for i in csa):
        raise ParseError(f"{context}: csa must be a list of indices")
    if not isinstance(pairs, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(_is_index(i) for i in p)
            for p in pairs):
        raise ParseError(f"{context}: root_pairs must be a list of index pairs")
    name = data.get("name", "custom")
    if not isinstance(name, str):
        raise ParseError(f"{context}: name must be a string")
    return mats, norm, csa, [tuple(p) for p in pairs], name


# ---------------------------------------------------------------------------
# Moment vector files
# ---------------------------------------------------------------------------

def moments_to_dict(moments, algebra_label):
    return {
        "algebra": algebra_label,
        "moments": [float(v) for v in moments.values],
        "shots_per_observable": moments.shots,
        "seed": moments.seed,
    }


def save_moments(moments, algebra_label, path):
    _dump(moments_to_dict(moments, algebra_label), path)


def load_moments(path):
    data = _load(path)
    _require(data, ["algebra", "moments"], str(path))
    values = _numbers(data, "moments", path)
    shots = _count(data, "shots_per_observable", path)
    moments = MomentVector(values=values, source="sampled" if shots else "exact",
                           shots=shots, seed=_count(data, "seed", path))
    require_finite(moments.values, f"{path}: moments")
    return moments, data["algebra"]


# ---------------------------------------------------------------------------
# Circuit files
# ---------------------------------------------------------------------------

def circuit_to_dict(ops, kind_tags, trace, algebra_label):
    return {
        "algebra": algebra_label,
        "ops": [_group_op_to_json(op) for op in ops],
        "kind_tags": list(kind_tags),
        "trace": [float(d) for d in trace],
    }


def save_circuit(ops, kind_tags, trace, algebra_label, path):
    _dump(circuit_to_dict(ops, kind_tags, trace, algebra_label), path)


def _group_op_to_json(op):
    return {"l": int(op.root_index), "alpha": [float(op.alpha.real), float(op.alpha.imag)]}


def _group_op_from_json(entry, context):
    """GroupOp from {"l": int, "alpha": [re, im]}, else ParseError; l is range-checked on use."""
    _require(entry, ["l", "alpha"], context)
    root, alpha = entry["l"], entry["alpha"]
    if (not isinstance(root, int) or isinstance(root, bool)
            or not isinstance(alpha, list) or len(alpha) != 2
            or not all(_is_number(a) for a in alpha)):
        raise ParseError(f"{context} must be {{'l': int, 'alpha': [re, im]}}")
    return GroupOp(root, complex(alpha[0], alpha[1]))


def load_circuit(path):
    data = _load(path)
    _require(data, ["algebra", "ops"], str(path))
    ops = [_group_op_from_json(entry, f"{path}: ops[{k}]")
           for k, entry in enumerate(_list(data, "ops", str(path)))]
    tags = data.get("kind_tags", ["jacobi"] * len(ops))
    if (not isinstance(tags, list) or len(tags) != len(ops)
            or not all(tag in ("weyl", "jacobi") for tag in tags)):
        raise ParseError(f"{path}: kind_tags must list 'weyl' or 'jacobi' for each op")
    trace = _numbers(data, "trace", path) if "trace" in data else np.zeros(0)
    if not np.isfinite(trace).all():
        raise ParseError(f"{path}: trace must be a list of finite numbers")
    return ops, tags, trace.tolist(), data["algebra"]


# ---------------------------------------------------------------------------
# LQC circuit files
# ---------------------------------------------------------------------------

def lqc_to_dict(gates, initial, algebra_label):
    """gates: sequence of GroupOp or explicit unitaries; initial: 'hw' or MomentVector."""
    encoded = []
    for gate in gates:
        if isinstance(gate, GroupOp):
            encoded.append(dict(_group_op_to_json(gate), type="group_op"))
        else:
            encoded.append({"type": "unitary", "matrix": _matrix_to_json(gate)})
    initial_enc = "hw" if isinstance(initial, str) else [float(v) for v in initial.values]
    return {"algebra": algebra_label, "initial": initial_enc, "gates": encoded}


def save_lqc(gates, initial, algebra_label, path):
    _dump(lqc_to_dict(gates, initial, algebra_label), path)


def load_lqc(path):
    data = _load(path)
    _require(data, ["algebra", "initial", "gates"], str(path))
    gates = []
    for k, entry in enumerate(_list(data, "gates", str(path))):
        _require(entry, ["type"], f"{path}: gates[{k}]")
        if entry["type"] == "group_op":
            gates.append(_group_op_from_json(entry, f"{path}: gates[{k}]"))
        elif entry["type"] == "unitary":
            _require(entry, ["matrix"], f"{path}: gates[{k}]")
            gates.append(_matrix_from_json(entry["matrix"], context=f"{path}: gates[{k}]"))
        else:
            raise ParseError(f"{path}: gates[{k}] has unknown type {entry['type']!r}")
    initial = data["initial"]
    if initial != "hw":
        initial = MomentVector(values=_numbers(data, "initial", path), source="exact")
        require_finite(initial.values, f"{path}: initial")
    return gates, initial, data["algebra"]


# ---------------------------------------------------------------------------
# Synthesis reports
# ---------------------------------------------------------------------------

def report_to_dict(report):
    return {
        "algebra": report.algebra_label,
        "circuit": circuit_to_dict(report.ops, report.kind_tags, report.trace,
                                   report.algebra_label),
        "budget": dataclasses.asdict(report.budget),
        "achieved_d": report.achieved_d,
        "K": report.total_ops,
        "K_prime": report.steps_jacobi,
        "weyl_reflections": report.steps_weyl,
        "moments_source": report.moments_source,
        "shots_per_observable": report.shots_per_observable,
        "shot_total": report.shot_total,
        "fidelity": report.fidelity,
        "distance": report.distance,
    }


def save_report(report, path):
    _dump(report_to_dict(report), path)
