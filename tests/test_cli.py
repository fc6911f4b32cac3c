import json
import os
import subprocess
import sys

import pytest

import gcsynth
from gcsynth import errors
from gcsynth.cli import main
from gcsynth.serialize import (
    _matrix_to_json,
    load_circuit,
    save_algebra,
    save_circuit,
    save_lqc,
    save_moments,
)
from gcsynth import GroupOp, MomentVector, hidden_gcs

from conftest import SIGMA_X, SIGMA_Y, SIGMA_Z, build_tied_top


@pytest.fixture()
def su2_file(tmp_path):
    path = tmp_path / "su2.json"
    assert main(["algebra", "export", "--name", "su2", "--two-j", "1",
                 "--out", str(path)]) == 0
    return path


def test_algebra_list(capsys):
    assert main(["algebra", "list"]) == 0
    out = capsys.readouterr().out
    assert "su2" in out and "so2n" in out


def test_algebra_export_so2n(tmp_path):
    path = tmp_path / "so4.json"
    assert main(["algebra", "export", "--name", "so2n", "--n", "2",
                 "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["rep_dim"] == 4
    assert len(data["basis"]) == 6


def test_synth_pipe_through(tmp_path, su2_file, su2_half):
    handle = hidden_gcs(su2_half, seed=5, num_ops=2)
    moments_path = tmp_path / "m.json"
    save_moments(handle.exact_moments(), "su2:1", moments_path)
    circuit_path = tmp_path / "c.json"
    assert main(["synth", "--algebra", str(su2_file), "--moments", str(moments_path),
                 "--epsilon", "1e-6", "--out", str(circuit_path), "--quiet"]) == 0
    ops, tags, trace, label = load_circuit(circuit_path)
    assert label == "su2:1"
    assert len(ops) >= 1
    assert set(tags) <= {"weyl", "jacobi"}
    assert trace[-1] <= trace[0]


def test_tomo_sim_deterministic(tmp_path, su2_file):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    base = ["tomo-sim", "--algebra", str(su2_file), "--seed", "7",
            "--hidden-ops", "3", "--epsilon", "0.1", "--delta", "0.05", "--quiet"]
    assert main(base + ["--out", str(p1)]) == 0
    assert main(base + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    report = json.loads(p1.read_text())
    assert report["distance"] <= 0.1
    assert report["shot_total"] == report["shots_per_observable"] * 3


def test_verify_against_hidden(tmp_path, su2_file, su2_half, capsys):
    handle = hidden_gcs(su2_half, seed=9, num_ops=2)
    circuit_path = tmp_path / "c.json"
    save_circuit(list(handle.preparation_ops), ["jacobi"] * 2, [], "su2:1", circuit_path)
    out_path = tmp_path / "verify.json"
    assert main(["verify", "--algebra", str(su2_file), "--circuit", str(circuit_path),
                 "--against", "hidden", "--seed", "9", "--hidden-ops", "2",
                 "--out", str(out_path)]) == 0
    stdout = capsys.readouterr().out
    result = json.loads(stdout)
    assert result["fidelity"] > 1.0 - 1e-9
    assert out_path.read_text() == stdout


def test_verify_corrupt_circuit_exits_1(tmp_path, su2_file, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code = main(["verify", "--algebra", str(su2_file), "--circuit", str(bad),
                 "--against", "hidden", "--seed", "1"])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ParseError"


def test_synth_max_steps_exceeded_exits_2(tmp_path, su2_file, su2_half, capsys):
    handle = hidden_gcs(su2_half, seed=3, num_ops=2)
    moments_path = tmp_path / "m.json"
    save_moments(handle.exact_moments(), "su2:1", moments_path)
    code = main(["synth", "--algebra", str(su2_file), "--moments", str(moments_path),
                 "--epsilon", "1e-6", "--max-steps", "0", "--quiet",
                 "--out", str(tmp_path / "c.json")])
    assert code == 2
    record = _one_json_error_line(capsys)
    assert record["error"] == "MaxStepsExceeded"
    assert len(record["trace"]) == 1 and record["trace"][0] > 0
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("command", ["synth", "tomo-sim"])
def test_negative_max_steps_exits_1(tmp_path, su2_file, su2_half, capsys, command):
    moments_path = tmp_path / "m.json"
    save_moments(hidden_gcs(su2_half, seed=3, num_ops=2).exact_moments(), "su2:1", moments_path)
    source = ["--moments", str(moments_path)] if command == "synth" else ["--seed", "1"]
    out = tmp_path / "out.json"
    assert main([command, "--algebra", str(su2_file), *source, "--epsilon", "0.1",
                 "--max-steps", "-1", "--quiet", "--out", str(out)]) == 1
    assert _one_json_error_line(capsys) == {
        "error": "InvalidParameter", "message": "max_steps must be >= 0, got -1"}
    assert not out.exists()


def _seed_argv(command, seed, tmp_path):
    if command == "tomo-sim":
        return ["tomo-sim", "--algebra", "su2:1", f"--seed={seed}", "--epsilon", "0.1",
                "--quiet", "--out", str(tmp_path / "r.json")]
    save_circuit([GroupOp(0, 0.3 + 0.1j)], ["jacobi"], [0.0], "su2:1", tmp_path / "c.json")
    return ["verify", "--algebra", "su2:1", "--circuit", str(tmp_path / "c.json"),
            f"--seed={seed}", "--out", str(tmp_path / "r.json")]


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
@pytest.mark.parametrize("command", ["tomo-sim", "verify"])
def test_seed_outside_uint64_exits_1(tmp_path, capsys, command, seed):
    # -1 and 2^64 - 1 used to write byte-identical reports.
    assert main(_seed_argv(command, seed, tmp_path)) == 1
    assert _one_json_error_line(capsys) == {
        "error": "InvalidParameter",
        "message": f"seed must be an integer in [0, 2^64), got {seed}"}
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
@pytest.mark.parametrize("command", ["tomo-sim", "verify"])
def test_seeds_at_the_uint64_ends_run(tmp_path, capsys, command, seed):
    assert main(_seed_argv(command, seed, tmp_path)) == 0
    assert (tmp_path / "r.json").exists()


def test_zero_gap_exits_2(tmp_path, capsys):
    # A well-formed definition file whose highest-weight Hamiltonian has a
    # degenerate top eigenvalue: a numerical failure, not bad input.
    algebra_path = tmp_path / "tied.json"
    save_algebra(build_tied_top(), algebra_path)
    out_path = tmp_path / "r.json"
    assert main(["tomo-sim", "--algebra", str(algebra_path), "--seed", "1",
                 "--epsilon", "0.1", "--quiet", "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0]) == {
        "error": "ZeroGap", "message": "highest-weight Hamiltonian has a degenerate top eigenvalue"}
    assert not out_path.exists()


def test_error_types_state_their_exit_status_and_fields():
    numerical = {name for name, cls in vars(errors).items()
                 if isinstance(cls, type) and issubclass(cls, errors.NumericalFailure)}
    assert numerical == {"NumericalFailure", "MaxStepsExceeded", "NoProgress",
                         "StepDidNotReducePivot", "DegenerateTop", "ZeroGap", "NotAGcs"}
    assert errors.exit_record(errors.MaxStepsExceeded("m", trace=[0.5, 0.25])) == (
        2, {"error": "MaxStepsExceeded", "message": "m", "trace": [0.5, 0.25]})
    assert errors.exit_record(errors.NonHermitianInput("v")) == (
        1, {"error": "NonHermitianInput", "message": "v"})
    assert errors.exit_record(FileNotFoundError("no file")) == (
        1, {"error": "FileNotFoundError", "message": "no file"})


# Per subcommand: a well-formed command line, one numeric flag, one required flag.
_COMMANDS = {
    "algebra-list": (["algebra", "list"], None, None),
    "algebra-export": (["algebra", "export", "--name", "su2", "--two-j", "1"],
                       "--two-j", "--name"),
    "synth": (["synth", "--algebra", "su2:1", "--moments", "m.json", "--epsilon", "0.1"],
              "--epsilon", "--moments"),
    "tomo-sim": (["tomo-sim", "--algebra", "su2:1", "--seed", "1", "--epsilon", "0.1"],
                 "--seed", "--algebra"),
    "verify": (["verify", "--algebra", "su2:1", "--circuit", "c.json", "--seed", "1"],
               "--hidden-ops", "--circuit"),
    "lqc-run": (["lqc", "run", "--circuit", "c.json", "--algebra", "su2:1"],
                "--epsilon", "--circuit"),
}
_USAGE_ERRORS = {"unknown-command": ["bogus"], "no-command": [],
                 "unknown-algebra-subcommand": ["algebra", "bogus"],
                 "unknown-lqc-subcommand": ["lqc", "bogus"],
                 "lqc-run-max-steps": _COMMANDS["lqc-run"][0] + ["--max-steps", "3"],
                 "tomo-sim-shots-override": _COMMANDS["tomo-sim"][0] + ["--shots-override", "5"]}
for _name, (_argv, _number, _required) in _COMMANDS.items():
    _USAGE_ERRORS[f"{_name}-unknown-flag"] = _argv + ["--bogus"]
    if _number:
        _USAGE_ERRORS[f"{_name}-bad-number"] = _argv + [_number, "1.5x"]
    if _required:
        _at = _argv.index(_required)
        _USAGE_ERRORS[f"{_name}-missing-flag"] = _argv[:_at] + _argv[_at + 2:]


@pytest.mark.parametrize("argv", list(_USAGE_ERRORS.values()), ids=list(_USAGE_ERRORS))
def test_usage_errors_exit_1_with_one_json_line(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.setenv("GCSYNTH_OUT", str(tmp_path))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InvalidParameter"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--help"], ["algebra", "export", "--help"],
                                  ["lqc", "run", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gcsynth")


def test_lqc_run_with_recovery(tmp_path, capsys):
    so4_path = tmp_path / "so4.json"
    assert main(["algebra", "export", "--name", "so2n", "--n", "2",
                 "--out", str(so4_path)]) == 0
    circuit_path = tmp_path / "lqc.json"
    gates = [GroupOp(0, 0.4 + 0.2j), GroupOp(1, -0.3j), GroupOp(0, 0.1)]
    save_lqc(gates, "hw", "so2n:2", circuit_path)
    out_path = tmp_path / "final.json"
    assert main(["lqc", "run", "--circuit", str(circuit_path),
                 "--algebra", str(so4_path), "--out", str(out_path),
                 "--recover-circuit", "--epsilon", "1e-5", "--quiet"]) == 0
    final = json.loads(out_path.read_text())
    assert len(final["moments"]) == 6
    recovered = json.loads((tmp_path / "final.circuit.json").read_text())
    assert len(recovered["ops"]) >= 1


def test_lqc_recovery_bad_epsilon_writes_nothing(tmp_path, capsys):
    # The budget is checked before propagation: no moments file, nothing on stdout.
    circuit_path = tmp_path / "lqc.json"
    save_lqc([GroupOp(0, 0.4 + 0.2j)], "hw", "so2n:2", circuit_path)
    out_path = tmp_path / "final.json"
    capsys.readouterr()
    assert main(["lqc", "run", "--circuit", str(circuit_path), "--algebra", "so2n:2",
                 "--out", str(out_path), "--recover-circuit", "--epsilon", "0",
                 "--quiet"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InvalidParameter"
    assert not out_path.exists()


@pytest.mark.parametrize("recover", [[], ["--recover-circuit"]], ids=["run", "recover"])
def test_lqc_initial_of_wrong_length_exits_1(tmp_path, capsys, recover):
    # With no gates nothing compared the initial vector with the algebra: run
    # wrote it back as the final moments, and recovery failed with NotAGcs.
    circuit_path = tmp_path / "lqc.json"
    circuit_path.write_text(json.dumps({"algebra": "so2n:3", "initial": [0.1, 0.2],
                                        "gates": []}))
    out_path = tmp_path / "final.json"
    assert main(["lqc", "run", "--circuit", str(circuit_path), "--algebra", "so2n:3",
                 "--out", str(out_path), "--quiet"] + recover) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0]) == {
        "error": "LengthMismatch", "message": "moment vector has length 2, "
                                              "algebra dimension is 15"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["lqc.json"]


def test_algebra_label_mismatch_exits_1(tmp_path, su2_file, capsys):
    moments_path = tmp_path / "m.json"
    save_moments(MomentVector([1.0, 0.0, 0.0]), "so2n:2", moments_path)
    code = main(["synth", "--algebra", str(su2_file), "--moments", str(moments_path),
                 "--epsilon", "1e-4", "--quiet", "--out", str(tmp_path / "c.json")])
    assert code == 1


def test_out_dir_env_default(tmp_path, su2_file, monkeypatch, su2_half):
    monkeypatch.setenv("GCSYNTH_OUT", str(tmp_path))
    handle = hidden_gcs(su2_half, seed=5, num_ops=1)
    moments_path = tmp_path / "m.json"
    save_moments(handle.exact_moments(), "su2:1", moments_path)
    assert main(["synth", "--algebra", str(su2_file), "--moments", str(moments_path),
                 "--epsilon", "1e-4", "--quiet"]) == 0
    assert (tmp_path / "circuit.json").exists()


def _one_json_error_line(capsys):
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_export_without_parameter_exits_1(tmp_path, capsys):
    out = tmp_path / "so.json"
    for name, flag in [("so2n", "--n"), ("su2", "--two-j")]:
        assert main(["algebra", "export", "--name", name, "--out", str(out)]) == 1
        assert _one_json_error_line(capsys) == {
            "error": "InvalidParameter", "message": f"{flag} is required for {name}"}
    assert not out.exists()


def test_synth_nan_moments_exits_1(tmp_path, su2_file, capsys):
    moments_path = tmp_path / "m.json"
    save_moments(MomentVector([1.0, float("nan"), 0.0]), "su2:1", moments_path)
    code = main(["synth", "--algebra", str(su2_file), "--moments", str(moments_path),
                 "--epsilon", "1e-4", "--quiet", "--out", str(tmp_path / "c.json")])
    assert code == 1
    assert _one_json_error_line(capsys)["error"] == "NonFiniteMoments"


_GOOD_ALPHA = [0.3, 0.1]
_NAN_UNITARY = [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
_INF_IMAG_UNITARY = [[[1.0, float("inf")], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
_DIAG_1_2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]
_EYE_3 = [[[float(i == j), 0.0] for j in range(3)] for i in range(3)]
_HUGE_INT = 10 ** 400  # a JSON integer no float can hold


@pytest.mark.parametrize("command, content, error", [
    ("verify", {"ops": [{"l": 5, "alpha": _GOOD_ALPHA}]}, "RootIndexOutOfRange"),
    ("lqc", {"gates": [{"type": "group_op", "l": 5, "alpha": _GOOD_ALPHA}]},
     "RootIndexOutOfRange"),
    ("lqc", {"gates": [{"type": "group_op", "l": "x", "alpha": _GOOD_ALPHA}]}, "ParseError"),
    ("lqc", {"gates": [{"type": "group_op", "l": 0, "alpha": 3}]}, "ParseError"),
    ("lqc", {"gates": [{"type": "unitary", "matrix": _NAN_UNITARY}]}, "NonFiniteGate"),
    # 1j * inf used to warn on stderr besides the JSON line.
    ("lqc", {"gates": [{"type": "unitary", "matrix": _INF_IMAG_UNITARY}]}, "NonFiniteGate"),
    ("verify", {"ops": 5}, "ParseError"),
    ("lqc", {"gates": 5}, "ParseError"),
    ("verify", {"ops": [], "kind_tags": 5}, "ParseError"),
    ("verify", {"ops": [{"l": 0, "alpha": [float("nan"), 0.0]}]}, "NonFiniteGate"),
    ("lqc", {"gates": [{"type": "group_op", "l": 0, "alpha": [0.0, float("inf")]}]},
     "NonFiniteGate"),
    ("lqc", {"gates": [{"type": "unitary", "matrix": _DIAG_1_2}]}, "InvalidGate"),
    ("lqc", {"gates": [{"type": "unitary", "matrix": _EYE_3}]}, "InvalidGate"),
    # |alpha| times the adjoint generator's largest eigenvalue (2 on su2:1) overflows.
    ("lqc", {"gates": [{"type": "group_op", "l": 0, "alpha": [1e308, 0.0]}]}, "NonFiniteGate"),
    ("verify", {"ops": [{"l": 0, "alpha": [1.7e308, 1.7e308]}]}, "NonFiniteGate"),
    ("verify", {"ops": [], "trace": 5}, "ParseError"),
    ("verify", {"ops": [], "trace": [1.0, "a"]}, "ParseError"),
    ("verify", {"ops": [], "trace": [1.0, float("nan")]}, "ParseError"),
    ("verify", {"ops": [{"l": 0, "alpha": _GOOD_ALPHA}], "kind_tags": ["swap"]}, "ParseError"),
    ("verify", {"ops": [{"l": 0, "alpha": [_HUGE_INT, 0]}]}, "ParseError"),
], ids=["verify-root-range", "lqc-root-range", "lqc-root-type", "lqc-alpha-shape",
        "lqc-nan-unitary", "lqc-inf-imag-unitary", "verify-ops-not-list", "lqc-gates-not-list", "verify-tags-not-list",
        "verify-nan-alpha", "lqc-inf-alpha", "lqc-not-unitary", "lqc-wrong-size",
        "lqc-huge-alpha", "verify-huge-alpha", "verify-trace-not-list", "verify-trace-str",
        "verify-trace-nan", "verify-tag-value", "verify-int-alpha-past-float"])
def test_bad_gate_files_exit_1(tmp_path, capsys, command, content, error):
    circuit_path = tmp_path / "bad.json"
    circuit_path.write_text(json.dumps(dict(content, algebra="su2:1", initial="hw")))
    out_path = tmp_path / "out.json"
    if command == "verify":
        argv = ["verify", "--algebra", "su2:1", "--circuit", str(circuit_path),
                "--seed", "1", "--out", str(out_path)]
    else:
        argv = ["lqc", "run", "--algebra", "su2:1", "--circuit", str(circuit_path),
                "--out", str(out_path)]
    assert main(argv) == 1
    assert _one_json_error_line(capsys)["error"] == error
    assert not out_path.exists()


_INF_BASIS = [_matrix_to_json(m) for m in (SIGMA_Z, SIGMA_X, SIGMA_Y)]
_INF_BASIS[1][0][1][0] = float("inf")
_HUGE_INT_BASIS = [_matrix_to_json(m) for m in (SIGMA_Z, SIGMA_X, SIGMA_Y)]
_HUGE_INT_BASIS[1][0][1][0] = _HUGE_INT
# Loader cases: booleans are not indices or numbers, and the normalization,
# the basis entries and the name must be finite numbers and a string.
_PARSE_CASES = {
    "csa-bool": {"csa": [False]},
    "pair-bool": {"root_pairs": [[True, 2]]},
    "normalization-bool": {"normalization": True},
    "name-list": {"name": [1]},
    "normalization-inf": {"normalization": float("inf")},
    "basis-inf": {"basis": _INF_BASIS},
    "basis-int-past-float": {"basis": _HUGE_INT_BASIS},
}


@pytest.mark.parametrize("change, error", [
    ({"csa": [7]}, "InvalidAlgebraSpec"),
    ({"csa": [-3]}, "InvalidAlgebraSpec"),
    ({"root_pairs": [[1, 1]]}, "InvalidAlgebraSpec"),
    ({"normalization": float("nan")}, "ParseError"),
    ({"basis": 5}, "ParseError"),
] + [(change, "ParseError") for change in _PARSE_CASES.values()],
    ids=["csa-7", "csa-negative", "pair-repeat", "normalization-nan", "basis-not-list"]
    + list(_PARSE_CASES))
def test_bad_algebra_files_exit_1(tmp_path, su2_file, su2_half, capsys, change, error):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(json.loads(su2_file.read_text()), **change)))
    moments_path = tmp_path / "m.json"
    save_moments(hidden_gcs(su2_half, seed=5, num_ops=1).exact_moments(), "su2:1", moments_path)
    capsys.readouterr()
    code = main(["synth", "--algebra", str(bad), "--moments", str(moments_path),
                 "--epsilon", "1e-4", "--quiet", "--out", str(tmp_path / "c.json")])
    assert code == 1
    assert _one_json_error_line(capsys)["error"] == error
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("change", list(_PARSE_CASES.values()), ids=list(_PARSE_CASES))
def test_bad_algebra_file_under_warnings_as_errors(tmp_path, su2_file, change):
    # A fresh interpreter with -W error: a numpy warning on the way to the
    # error line would become a traceback.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(json.loads(su2_file.read_text()), **change)))
    paths = [os.path.dirname(os.path.dirname(gcsynth.__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    script = "import sys; from gcsynth.cli import main; sys.exit(main())"
    run = subprocess.run(
        [sys.executable, "-W", "error", "-c", script, "tomo-sim", "--algebra", str(bad),
         "--seed", "1", "--hidden-ops", "2", "--epsilon", "0.1", "--quiet",
         "--out", str(tmp_path / "r.json")],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode in (1, 2)
    lines = run.stderr.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "ParseError"
    assert not (tmp_path / "r.json").exists()


def test_huge_spin_exits_1_before_building(tmp_path, capsys):
    # su2:100000 used to end in a numpy memory-error traceback.
    code = main(["tomo-sim", "--algebra", "su2:100000", "--seed", "1", "--epsilon", "0.1",
                 "--quiet", "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert _one_json_error_line(capsys)["error"] == "RootSpectrumIllConditioned"
    assert not (tmp_path / "r.json").exists()


def test_tomo_sim_shot_overflow_exits_1(tmp_path, capsys):
    code = main(["tomo-sim", "--algebra", "su2:1", "--seed", "1", "--epsilon", "1e-12",
                 "--quiet", "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert _one_json_error_line(capsys)["error"] == "ShotCountOverflow"


@pytest.mark.parametrize("epsilon", ["nan", "inf", "0", "1e-200", "1e-160", "1e200",
                                     "1.35e154"])
def test_tomo_sim_bad_epsilon_exits_1(tmp_path, capsys, epsilon):
    code = main(["tomo-sim", "--algebra", "su2:1", "--seed", "1", "--epsilon", epsilon,
                 "--quiet", "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert _one_json_error_line(capsys)["error"] == "InvalidParameter"
    assert not (tmp_path / "r.json").exists()


def test_synth_tiny_epsilon_exits_1(tmp_path, su2_file, su2_half, capsys):
    # eps_D underflows to 0 at epsilon = 1e-200: a typed error, not a ZeroDivisionError.
    moments_path = tmp_path / "m.json"
    save_moments(hidden_gcs(su2_half, seed=5, num_ops=1).exact_moments(), "su2:1", moments_path)
    capsys.readouterr()
    code = main(["synth", "--algebra", str(su2_file), "--moments", str(moments_path),
                 "--epsilon", "1e-200", "--quiet", "--out", str(tmp_path / "c.json")])
    assert code == 1
    assert _one_json_error_line(capsys)["error"] == "InvalidParameter"
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("command, content", [
    ("synth", {"moments": [1.0, 0.0, 0.0], "shots_per_observable": "x"}),
    ("synth", {"moments": [1.0, 0.0, 0.0], "shots_per_observable": -5}),
    ("synth", {"moments": [1.0, 0.0, 0.0], "seed": [1]}),
    ("lqc", {"initial": [1, "a", 0], "gates": []}),
    ("lqc", {"initial": [[1], 2, 3], "gates": []}),
    ("synth", {"moments": [_HUGE_INT, 0.0, 0.0]}),
], ids=["synth-shots-str", "synth-shots-negative", "synth-seed-list", "lqc-initial-str",
        "lqc-initial-nested", "synth-moment-int-past-float"])
def test_malformed_numeric_fields_exit_1(tmp_path, su2_file, capsys, command, content):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(dict(content, algebra="su2:1")))
    out_path = tmp_path / "out.json"
    if command == "synth":
        argv = ["synth", "--algebra", str(su2_file), "--moments", str(path),
                "--epsilon", "1e-4", "--quiet", "--out", str(out_path)]
    else:
        argv = ["lqc", "run", "--algebra", "su2:1", "--circuit", str(path),
                "--out", str(out_path)]
    capsys.readouterr()
    assert main(argv) == 1
    assert _one_json_error_line(capsys)["error"] == "ParseError"
    assert not out_path.exists()
