"""Fixed-seed artifacts are byte-identical: the README's commands and the
benchmark workloads' request artifacts, pinned by sha256.

Each README command runs through `cli.main` in a temporary directory, and
the bytes it writes (or prints) are hashed and compared with `EXPECTED`.
`BENCH_EXPECTED` holds the `artifact_sha256` that `perfbench/run.py`
reports for a workload and seed: the hash over its first ARTIFACT_REQUESTS
request artifacts, here generated without the timed loop.
The bytes depend on the numpy build, the BLAS and the machine, so the tables
are recorded with the environment they were made in (`RECORDED_ENV`).  In any
other environment every case is skipped, and the skip reason names what
differs (`pytest -rs` prints it).  In the recorded environment a byte
mismatch fails.

A change that moves an artifact on purpose regenerates the tables with
`PYTHONPATH=src python tests/test_artifact_bytes.py` and says why it moved.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path
import platform
import sys

import numpy as np
import pytest

from gcsynth.cli import main
from gcsynth.catalog import load_algebra
from gcsynth.serialize import save_moments
from gcsynth.states import hidden_gcs

RECORDED_ENV = {
    "python": "3.11.7",
    "numpy": "2.4.6",
    "blas": "scipy-openblas 0.3.31.188.0",
    "machine": "x86_64",
}

EXPECTED = {
    "algebra list": "877bbb1ad577c5921e53b80b74a34395ada61c1dc81a0db268166afc06766166",
    "circuit.json": "5a5ec8176e5c4ac8755cfae710db673a092fdc1a9815bcc5ea7b242e58778e9a",
    "final.circuit.json": "e232a0d54edf57b23d28b08c7a128a807cb30f8e1b86b19f106e594e2ec79647",
    "final.json": "34bc51f8877512799b8bcdde380d020ade11e8faab9ce88bb892d24a55e83400",
    "m.json": "711f1ca6b579b661b4c4227b9250fbc1fcf371fc1c9540ffb7d242ad4ba3f9eb",
    "report-su2-2.json": "0f641f49081ab65578f72a2a3bd7b725f5f40ab45b9a967af32b75ae08e6ca4d",
    "report.json": "a1faea47ace9a0d5ada2472032677cd7d4a0ab5a75e8ef0bba49f757104a1829",
    "so6.json": "05c48c31a83e7df5ccb8da6c7b07f1e89f2fe774f967d9192979009e5041a72e",
    "verify stdout": "e62854a9705ef417b37c46b47e96cbfedaacfa781d417a5a7bae31268e76bf55",
    "verify.json": "e62854a9705ef417b37c46b47e96cbfedaacfa781d417a5a7bae31268e76bf55",
}

BENCH_EXPECTED = {
    ("exact-jacobi", 1): "096fad5bd4348b4d5a59d340539322ae17b95e8ad8e257e86cf139441ef8944a",
    ("lqc-circuits", 1): "9607ef512172fc47af06e9bbe15ece6dac40ae96d83d7e485d3933abe7d2a056",
    ("tomo-sampled", 1): "e0c05a929ed9490eab7f97999398badf75bd8b22c5aa74f86cc6919865933332",
    ("tomo-sampled", 2): "3093b7be093fa853646924f224301f1a651d9871eed2bc9cba793c73a2bbc958",
    ("tomo-sampled", 3): "e3168bf11aac9d746a49afcf617a849f042ee885b6783f217e5ae6073b8a3cc6",
    ("tomo-sampled", 4): "b87bb8df3aa823c9ce642b4ac0f9a428cb46acb69ace668d6daeb9e3e0a0f837",
    ("tomo-sampled", 5): "33ca2c72c4d55ac2d9785535bfe13dad646f3a7cd9ed14f3ad4f7494d0ed50ac",
    ("tomo-sampled", 6): "4bdf8b32104ef5669a4d7d2dcb5c98d732724087289ae718d53a270c815294df",
    ("weyl-orbit", 1): "ef8c42cff4c61afc2cef5bbf2859cb04e1708547422eb557d9c55c5eb82650cf",
}

TOMO = ["--seed", "7", "--hidden-ops", "5", "--epsilon", "0.1", "--delta", "0.05", "--quiet"]


def current_env():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue().encode()


def _lqc_file(path, label):
    """so(6) group ops (odd roots pair modes, even roots hop) around one explicit
    unitary, exp(i pi/2 Z_0) = diag(i, .., -i, ..)."""
    half = [[0.0, 1.0]] * 4 + [[0.0, -1.0]] * 4
    unitary = [[half[i] if i == j else [0.0, 0.0] for j in range(8)] for i in range(8)]
    gates = [{"type": "group_op", "l": 1, "alpha": [0.3, 0.2]},
             {"type": "unitary", "matrix": unitary},
             {"type": "group_op", "l": 4, "alpha": [-0.7, 0.1]},
             {"type": "group_op", "l": 3, "alpha": [0.5, -0.4]}]
    path.write_text(json.dumps({"algebra": label, "initial": "hw", "gates": gates}))


def generate(tmp):
    """Run the README commands in directory `tmp`; return {artifact: bytes}."""
    out = {"algebra list": _stdout(["algebra", "list"])}
    so6 = tmp / "so6.json"
    _stdout(["algebra", "export", "--name", "so2n", "--n", "3", "--out", str(so6)])
    out["so6.json"] = so6.read_bytes()

    algebra = load_algebra(so6)
    save_moments(hidden_gcs(algebra, 7, 5).exact_moments(), algebra.label(), tmp / "m.json")
    out["m.json"] = (tmp / "m.json").read_bytes()
    _stdout(["synth", "--algebra", str(so6), "--moments", str(tmp / "m.json"),
             "--epsilon", "1e-4", "--out", str(tmp / "circuit.json"), "--quiet"])
    out["circuit.json"] = (tmp / "circuit.json").read_bytes()

    for spec, name in ((str(so6), "report.json"), ("su2:2", "report-su2-2.json")):
        _stdout(["tomo-sim", "--algebra", spec, *TOMO, "--out", str(tmp / name)])
        out[name] = (tmp / name).read_bytes()

    out["verify stdout"] = _stdout(
        ["verify", "--algebra", str(so6), "--circuit", str(tmp / "circuit.json"),
         "--against", "hidden", "--seed", "7", "--hidden-ops", "5",
         "--out", str(tmp / "verify.json")])
    out["verify.json"] = (tmp / "verify.json").read_bytes()

    _lqc_file(tmp / "lqc.json", algebra.label())
    _stdout(["lqc", "run", "--circuit", str(tmp / "lqc.json"), "--algebra", str(so6),
             "--out", str(tmp / "final.json"), "--recover-circuit", "--quiet"])
    out["final.json"] = (tmp / "final.json").read_bytes()
    out["final.circuit.json"] = (tmp / "final.circuit.json").read_bytes()
    return out


def bench_hashes(tmp):
    """Run each (workload, seed) of `BENCH_EXPECTED` in directory `tmp`, one
    set-up per workload; return {(workload, seed): artifact_sha256}."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    if str(bench) not in sys.path:
        sys.path.insert(0, str(bench))
    import run
    import su3def
    from workloads import WORKLOADS, set_up

    su3_path = su3def.write_su3(tmp / "su3.json")
    out = {}
    for name in sorted({name for name, _ in BENCH_EXPECTED}):
        workload = WORKLOADS[name]
        ctx = set_up(workload, su3_path)
        for seed in sorted(seed for n, seed in BENCH_EXPECTED if n == name):
            outdir = tmp / f"{name}-{seed}"
            outdir.mkdir()
            loop = run.Loop(workload, ctx, seed, outdir)
            for index in range(run.ARTIFACT_REQUESTS):
                loop.record(*loop.send(workload.request(ctx, seed, index)))
            out[name, seed] = run.artifact_hash(outdir, run.ARTIFACT_REQUESTS)
    return out


def _require_recorded_env():
    env = current_env()
    differs = {k: (RECORDED_ENV[k], env[k]) for k in RECORDED_ENV if env[k] != RECORDED_ENV[k]}
    if differs:
        pytest.skip("artifact table was recorded in another environment: " + ", ".join(
            f"{k} {want!r} recorded, {got!r} here" for k, (want, got) in differs.items()))


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    _require_recorded_env()
    return generate(tmp_path_factory.mktemp("readme"))


@pytest.fixture(scope="module")
def bench_artifacts(tmp_path_factory):
    _require_recorded_env()
    return bench_hashes(tmp_path_factory.mktemp("bench"))


def test_table_covers_every_artifact(artifacts):
    assert sorted(artifacts) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_artifact_bytes(artifacts, name):
    assert hashlib.sha256(artifacts[name]).hexdigest() == EXPECTED[name]


@pytest.mark.parametrize("case", sorted(BENCH_EXPECTED), ids=lambda c: f"{c[0]}-seed{c[1]}")
def test_benchmark_artifact_sha256(bench_artifacts, case):
    assert bench_artifacts[case] == BENCH_EXPECTED[case]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = generate(Path(tmp))
        bench = bench_hashes(Path(tmp))
    print(json.dumps(current_env(), indent=4))
    for name, data in sorted(table.items()):
        print(f"    {name!r}: \"{hashlib.sha256(data).hexdigest()}\",")
    for case, digest in sorted(bench.items()):
        print(f"    {case!r}: \"{digest}\",")
