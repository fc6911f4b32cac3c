import copy
import json

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from gcsynth import GroupOp, MomentVector, load_algebra, make_su2
from gcsynth.errors import GcsynthError, NonFiniteMoments, ParseError
from gcsynth.serialize import (
    algebra_to_dict,
    load_circuit,
    load_lqc,
    load_moments,
    save_circuit,
    save_lqc,
    save_moments,
)


def test_moments_round_trip(tmp_path):
    moments = MomentVector([0.25, -1.0, 0.5], source="sampled", shots=100, seed=7)
    path = tmp_path / "m.json"
    save_moments(moments, "su2:1", path)
    loaded, label = load_moments(path)
    assert label == "su2:1"
    assert np.array_equal(loaded.values, moments.values)
    assert loaded.shots == 100
    assert loaded.seed == 7
    assert loaded.source == "sampled"


def test_exact_moments_round_trip(tmp_path):
    moments = MomentVector([1.0, 0.0, 0.0])
    path = tmp_path / "m.json"
    save_moments(moments, "su2:1", path)
    loaded, _ = load_moments(path)
    assert loaded.source == "exact"


def test_circuit_round_trip(tmp_path):
    ops = [GroupOp(0, 0.5 + 0.25j), GroupOp(3, -1.0j)]
    path = tmp_path / "c.json"
    save_circuit(ops, ["weyl", "jacobi"], [1.0, 0.1], "so2n:2", path)
    loaded, tags, trace, label = load_circuit(path)
    assert loaded == ops
    assert tags == ["weyl", "jacobi"]
    assert trace == [1.0, 0.1]
    assert label == "so2n:2"


def test_lqc_round_trip(tmp_path):
    gates = [GroupOp(1, 0.3j), np.eye(4, dtype=complex)]
    path = tmp_path / "l.json"
    save_lqc(gates, "hw", "so2n:2", path)
    loaded, initial, label = load_lqc(path)
    assert initial == "hw"
    assert loaded[0] == gates[0]
    assert np.array_equal(loaded[1], gates[1])


def test_lqc_moment_initial_round_trip(tmp_path):
    initial = MomentVector([0.1] * 6)
    path = tmp_path / "l.json"
    save_lqc([], initial, "so2n:2", path)
    _, loaded, _ = load_lqc(path)
    assert np.allclose(loaded.values, initial.values)


def test_corrupt_json_raises(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_circuit(path)


def test_missing_keys_raise(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"algebra": "su2:1"}))
    with pytest.raises(ParseError):
        load_circuit(path)
    with pytest.raises(ParseError):
        load_moments(path)


def test_malformed_ops_raise(tmp_path):
    path = tmp_path / "bad.json"
    bad_entries = [{"l": 0, "alpha": [0.0]}, {"l": "x", "alpha": [0.1, 0.0]},
                   {"l": True, "alpha": [0.1, 0.0]},
                   {"l": 0, "alpha": 3}, {"l": 0, "alpha": ["a", 0.0]}, {"alpha": [0.1, 0.0]},
                   {"l": 0, "alpha": [True, 0.0]}]
    for entry in bad_entries:
        path.write_text(json.dumps({"algebra": "x", "ops": [entry]}))
        with pytest.raises(ParseError):
            load_circuit(path)
        path.write_text(json.dumps({"algebra": "x", "initial": "hw",
                                    "gates": [dict(entry, type="group_op")]}))
        with pytest.raises(ParseError):
            load_lqc(path)


def test_writer_is_deterministic(tmp_path):
    moments = MomentVector([0.3, 0.1, -0.2])
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_moments(moments, "su2:1", p1)
    save_moments(moments, "su2:1", p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_non_finite_moments_rejected_on_load(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"algebra": "su2:1", "moments": [1.0, NaN, 0.0]}')
    with pytest.raises(NonFiniteMoments):
        load_moments(path)
    lqc_path = tmp_path / "lqc.json"
    lqc_path.write_text('{"algebra": "su2:1", "initial": [Infinity, 0.0, 0.0], "gates": []}')
    with pytest.raises(NonFiniteMoments):
        load_lqc(lqc_path)


@pytest.mark.parametrize("initial", [[1, "a", 0], [[1], 2, 3], [True, 0.0, 0.0], {"x": 1}, 5])
def test_malformed_lqc_initial_raises(tmp_path, initial):
    path = tmp_path / "lqc.json"
    path.write_text(json.dumps({"algebra": "su2:1", "initial": initial, "gates": []}))
    with pytest.raises(ParseError):
        load_lqc(path)


@pytest.mark.parametrize("change", [
    {"moments": [1.0, True, 0.0]}, {"moments": [[1.0], 0.0, 0.0]},
    {"shots_per_observable": "x"}, {"shots_per_observable": 1.5},
    {"shots_per_observable": -5}, {"shots_per_observable": True},
    {"seed": [1]}, {"seed": -1}, {"seed": 2.0},
], ids=["moment-bool", "moment-nested", "shots-str", "shots-float", "shots-negative",
        "shots-bool", "seed-list", "seed-negative", "seed-float"])
def test_malformed_moment_fields_raise(tmp_path, change):
    path = tmp_path / "m.json"
    data = {"algebra": "su2:1", "moments": [1.0, 0.0, 0.0], "shots_per_observable": 10,
            "seed": 3}
    path.write_text(json.dumps(dict(data, **change)))
    with pytest.raises(ParseError):
        load_moments(path)


def test_null_shots_and_seed_load_as_exact(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"algebra": "su2:1", "moments": [1.0, 0.0, 0.0],
                                "shots_per_observable": None, "seed": None}))
    moments, _ = load_moments(path)
    assert (moments.source, moments.shots, moments.seed) == ("exact", None, None)


# One valid file per loader; the property test below mutates one field of it.
_ALPHA = [0.3, 0.1]
_VALID_FILES = {
    "moments": (load_moments, {"algebra": "su2:1", "moments": [1.0, 0.0, 0.0],
                               "shots_per_observable": 10, "seed": 3}),
    "circuit": (load_circuit, {"algebra": "su2:1", "ops": [{"l": 0, "alpha": _ALPHA}],
                               "kind_tags": ["jacobi"], "trace": [1.0]}),
    "lqc": (load_lqc, {"algebra": "su2:1", "initial": [1.0, 0.0, 0.0], "gates": [
        {"type": "group_op", "l": 0, "alpha": _ALPHA},
        {"type": "unitary", "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}]}),
    "algebra": (load_algebra, algebra_to_dict(make_su2(1))),
}
_DELETE = object()
_FIELD_VALUES = st.one_of(
    st.just(_DELETE), st.none(), st.booleans(), st.integers(-10 ** 400, 10 ** 400),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]), st.text(max_size=4),
    st.lists(st.lists(st.integers(-3, 3), max_size=3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=3),
)


def _field_paths(node, path=()):
    """The path of every dict value and list entry under `node`, containers included."""
    keys = node.keys() if isinstance(node, dict) \
        else range(len(node)) if isinstance(node, list) else ()
    out = []
    for key in keys:
        out += [path + (key,)] + _field_paths(node[key], path + (key,))
    return out


@pytest.mark.parametrize("kind", sorted(_VALID_FILES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_loaders_raise_only_gcsynth_errors(tmp_path_factory, kind, data):
    # One field deleted or replaced by a value of any JSON kind: the loader
    # returns or raises a GcsynthError, never a bare Python or numpy error.
    loader, valid = _VALID_FILES[kind]
    doc = copy.deepcopy(valid)
    *parents, last = data.draw(st.sampled_from(_field_paths(doc)))
    target = doc
    for key in parents:
        target = target[key]
    value = data.draw(_FIELD_VALUES)
    if value is _DELETE:
        del target[last]
    else:
        target[last] = value
    path = tmp_path_factory.getbasetemp() / f"mutated-{kind}.json"
    path.write_text(json.dumps(doc))
    try:
        loader(path)
    except GcsynthError:
        pass
