"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py

The input generators are deterministic, tracing leaves op outputs bitwise
unchanged, every checker rejects corrupted outputs, and BENCHMARK.json
names exactly what run.py reports.
"""

import json
import shutil
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import phaseframe as pf  # noqa: E402
import phaseframe.cli  # noqa: E402,F401
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer, metric_specs  # noqa: E402

NAMES = tuple(wl.WORKLOADS)


@pytest.fixture
def make():
    """Factory for workloads whose temporary files live inside the checkout."""
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    dirs = []

    def build(name, seed=0):
        dirs.append(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench_tmp"))
        return wl.WORKLOADS[name](pf, seed, dirs[-1])

    yield build
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)


def as_bytes(value) -> bytes:
    """Exact byte image of an op's outputs."""
    if isinstance(value, np.ndarray):
        return str((value.dtype, value.shape)).encode() + value.tobytes()
    if isinstance(value, dict):
        return b"".join(k.encode() + b"=" + as_bytes(value[k]) for k in sorted(value))
    if isinstance(value, (list, tuple)):
        return b"[" + b",".join(as_bytes(v) for v in value) + b"]"
    if isinstance(value, float):
        return struct.pack("<d", value)
    return repr(value).encode()


def fingerprint(w) -> bytes:
    """Byte image of the inputs a workload generated from its seed."""
    if isinstance(w, wl.Recover):
        return as_bytes([w.make_input(0), w.make_input(7)])
    if isinstance(w, wl.Sweep):
        return as_bytes([(g.N, g.p, psi.coefficients) for g, psi in w.cases])
    if isinstance(w, wl.Offgrid):
        return as_bytes([w.truth.coefficients, [(z, k) for z, k in w.chunks]])
    return Path(w.state_path).read_bytes() + (Path(w.state_path).parent / "psi.json").read_bytes()


def sample_inputs(w) -> list:
    """A few ops per workload, failing ones included."""
    if isinstance(w, wl.Sweep):
        return w.pass_inputs()[::9]
    if isinstance(w, wl.Offgrid):
        return w.pass_inputs()[:3]
    return list(w.pass_inputs())


def outcome(w, x):
    """Outputs of one op, or the exception it raised; CLI output files included."""
    try:
        out = w.run(x)
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc))
    if isinstance(w, wl.Cli) and "--out" in x:
        out = dict(out, file=Path(x[x.index("--out") + 1]).read_bytes())
    return out


@pytest.mark.parametrize("name", NAMES)
def test_generators_are_deterministic(make, name):
    a, b, c = make(name, 11), make(name, 11), make(name, 12)
    assert fingerprint(a) == fingerprint(b)
    assert fingerprint(a) != fingerprint(c)


@pytest.mark.parametrize("name", NAMES)
def test_traced_outputs_are_bitwise_identical(make, name):
    w = make(name)
    inputs = sample_inputs(w)
    plain = [as_bytes(outcome(w, x)) for x in inputs]
    original = pf.sample
    with Tracer() as tracer:
        assert pf.sample is not original
        traced = [as_bytes(outcome(w, x)) for x in inputs]
    assert pf.sample is original
    assert tracer.spans
    assert traced == plain


def assert_rejects(w, x, out, error=wl.WrongOutput):
    with pytest.raises(error):
        w.check(x, out)


def test_recover_checker_rejects_corruption(make):
    w = make("recover")
    x = w.pass_inputs()[0]
    out = w.run(x)
    w.check(x, out)
    lo = w.lo
    for key, index, delta in (
        ("exact", (0, lo + 5), 1e-3),
        ("partial", (1, lo + 100), 1e-3),
        ("filtered", (3, w.M), 1e-3),
        ("exact", (2, 3), np.nan),
        ("partial", (1, 5000), np.nan),
    ):
        bad = {k: v.copy() for k, v in out.items()}
        bad[key][index] += delta
        assert_rejects(w, x, bad)


def test_sweep_checker_rejects_corruption(make):
    w = make("sweep")
    x = w.pass_inputs()[20]
    out = w.run(x)
    w.check(x, out)
    folded = out["folded"].copy()
    folded[0] *= 1.0 + 1e-6
    nan_folded = out["folded"].copy()
    nan_folded[-1] = np.nan
    for change in ({"folded": folded}, {"folded": nan_folded}, {"droplet": 1.5},
                   {"bound": -1.0}, {"bound_filtered": float("inf")}):
        assert_rejects(w, x, dict(out, **change))


def test_offgrid_checker_rejects_corruption(make):
    w = make("offgrid")
    x = w.pass_inputs()[9]
    out = w.run(x)
    w.check(x, out)
    ring = np.flatnonzero(np.abs(np.abs(x[0]) / np.sqrt(w.p) - 1.0) <= 0.05)
    assert ring.size
    for key, index, factor in (
        ("exact_predict", ring[0], 1.0 + 1e-6),
        ("exact_reconstruct", ring[-1], 1.0 + 1e-6),
        ("partial_reconstruct", 0, 1.0 + 1e-6),
        ("sinc_kernel", 3, np.nan),
        ("lagrange_kernel", 4, np.nan),
    ):
        bad = {k: v.copy() for k, v in out.items()}
        bad[key][index] *= factor
        assert_rejects(w, x, bad)


def test_cli_checker_rejects_corruption(make):
    w = make("cli")
    exact = next(a for a in w.pass_inputs() if a[:3] == ["reconstruct", "--mode", "exact"])
    out = w.run(exact)
    path = Path(exact[exact.index("--out") + 1])
    good = json.loads(path.read_text())
    w.check(exact, out)
    assert not path.exists()
    assert_rejects(w, exact, out)  # no output file left to pass on

    bad = json.loads(json.dumps(good))
    bad["coefficients"][w.lo + 10][0] += 1e-3
    path.write_text(json.dumps(bad))
    assert_rejects(w, exact, out)

    bad = json.loads(json.dumps(good))
    bad["evaluation"]["values"][0][1] = float("nan")
    path.write_text(json.dumps(bad))
    assert_rejects(w, exact, out)

    path.write_text(json.dumps(good)[:-10])
    assert_rejects(w, exact, out)

    assert_rejects(w, exact, dict(out, code=2), wl.ExplicitFailure)

    validate = next(a for a in w.pass_inputs() if a[0] == "validate")
    fake = "\n".join(["PASS check: 0"] * 6 + ["FAIL check: 1"]) + "\n"
    assert_rejects(w, validate, {"code": 0, "stdout": fake, "stderr": ""})


def test_tail_percentile():
    assert run.tail_percentile([float(i) for i in range(1, 101)]) == (90, 90.0)
    assert run.tail_percentile([float(i) for i in range(17)])[0] == 41
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (100, 3.0)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == metric_specs()
    assert spec["paths"] == ["perfbench"]
