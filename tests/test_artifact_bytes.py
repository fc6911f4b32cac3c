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
    "circuit.json": "a4dbfec9e225b34274dd49e801de9afc14b94fb4128ab9cfbac531ed5939fd57",
    "final.circuit.json": "32a35ac53aa579779f7ecb856f175e15b35ec783e4c4a4baf6109b30c7f04545",
    "final.json": "8edef7aa5501559aa66a9ec92d0d1ddc184d2ce78bcc81f7f016cabc84eaa6df",
    "m.json": "01a3ec48317fe7283368f2db82ea5f4160878abbc575e0495e8b407625000e20",
    "report-su2-2.json": "7a13877bf8be6358fd02f9ed4dfe27c001150ad0278b43d087ca35be14e80a0d",
    "report.json": "3b8700143eb7c7be7a51e34cc0cb1be1d30ea0a462c85dbfc685a5c2129ac223",
    "so6.json": "05c48c31a83e7df5ccb8da6c7b07f1e89f2fe774f967d9192979009e5041a72e",
    "verify stdout": "e62854a9705ef417b37c46b47e96cbfedaacfa781d417a5a7bae31268e76bf55",
    "verify.json": "e62854a9705ef417b37c46b47e96cbfedaacfa781d417a5a7bae31268e76bf55",
}

BENCH_EXPECTED = {
    ("exact-jacobi", 1): "922d321d1b9435e8e7bf5b70924f33707e43272d4e44f605d3e47cb446bcd225",
    ("lqc-circuits", 1): "fd2ebc39b04c2bc393faa665aa9c49f64c84dd343d94211dc2e23a909150a46f",
    ("tomo-sampled", 1): "5548b15c33e6ff725859f21cc92a2a5bc9363617246a625a8c69c4f94863c515",
    ("tomo-sampled", 2): "5bd1d1818ad4bf9f6332dffed0a6899c25e3ba7e34d801559e24cff6fd1ec37d",
    ("tomo-sampled", 3): "519a1441dbdee35ee2a4acd8cad6eb1bc93fd0bf9cbfcfb083625b10dbc72920",
    ("tomo-sampled", 4): "2c9bb0392dac1fff9406cca55aee4facd5cddac2b2b061f0767aff67aa1bf2ad",
    ("tomo-sampled", 5): "0ff073289ac356d639d09a75b445667710404830e26460004d909d8320f5d61e",
    ("tomo-sampled", 6): "89b82365cf46da34a895d4c3b764a0841b01ceda9796a6abcab38a009779df92",
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
