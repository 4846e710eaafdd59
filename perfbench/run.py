"""Benchmark of the phaseframe library: four seeded workloads.

    python3 perfbench/run.py --workload recover --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py                     # all four workloads, seed 0

Every workload runs closed-loop, one op at a time, in fresh worker processes
(worker.py) with BLAS/OpenMP pinned to one thread.  With --trace 0 the
end-to-end metrics are reported; with --trace 1 a separate run installs the
layer tracer and reports per-layer metrics and the tracing overhead.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the ops, the checks and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import metric_specs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("recover", "sweep", "offgrid", "cli")
# fresh processes whose set-up time is timed; the median is reported
SETUP_SAMPLES = 3
# the whole run, every worker included, ends within this many seconds
BUDGET_S = 170.0
TAIL_BEYOND = 10
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "pass_frac": "frac",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class WorkerError(RuntimeError):
    pass


def tail_percentile(latencies: list[float], beyond: int = TAIL_BEYOND) -> tuple[int, float]:
    """Highest integer percentile (nearest rank) with at least `beyond`
    samples above it, and its value; (100, max) if there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    for q in range(99, 0, -1):
        rank = math.ceil(q * n / 100)
        if rank >= 1 and n - rank >= beyond:
            return q, ordered[rank - 1]
    return 100, ordered[-1]


def spawn(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("time budget exhausted before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {' '.join(args)} overran the time budget") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
    }


def measure(name: str, seed: int, seconds: float, deadline: float) -> dict:
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setups = [spawn([*base, "--mode", "setup"], deadline) for _ in range(SETUP_SAMPLES - 1)]
    main = spawn([*base, "--mode", "measure"], deadline)
    run = main["measure"]
    latencies = main["latencies_s"]
    ops, failed = run["ops"], run["explicit"] + run["wrong"]
    setup_times = [w["setup_s"] for w in setups] + [main["setup_s"]]
    q, tail = tail_percentile(latencies)
    raw = {
        "ops_per_s": ops / run["op_time_s"],
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
    }
    scale = main["scale"]["factor"]
    values = {
        "ops_per_s": raw["ops_per_s"] / scale,
        "op_p50_ms": raw["op_p50_ms"] * scale,
        "op_tail_ms": raw["op_tail_ms"] * scale,
        "pass_frac": (ops - failed) / ops,
        "peak_rss_mb": main["peak_rss_mb"],
        "setup_s": statistics.median(setup_times),
    }
    metrics = {key: (values[key], unit) for key, unit in END_TO_END_UNITS.items()}
    return {
        "workload": name,
        "ops": ops,
        "failed": failed,
        "wrong": run["wrong"] + sum(w["warmup"]["wrong"] for w in (*setups, main)),
        "reasons": run["reasons"],
        "tail": {"percentile": q, "samples": len(latencies), "beyond": TAIL_BEYOND},
        "setup_times": setup_times,
        "work": (main["unit"], main["per_op"]),
        "scale": main["scale"],
        "raw": raw,
        "env": {**host(), **main["env"]},
        "metrics": metrics,
    }


def trace(name: str, seed: int, seconds: float, deadline: float) -> dict:
    out = spawn(["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                 "--mode", "trace"], deadline)
    plain, traced = out["untraced"], out["traced"]
    plain_rate = plain["ops"] / plain["op_time_s"]
    traced_rate = traced["ops"] / traced["op_time_s"]
    scale = out["scale"]["factor"]
    units = {spec[0]: spec[1] for spec in metric_specs()}
    metrics = {
        key: (value * scale if key.endswith(".self_s") else value, units[key])
        for key, value in out["layers"].items()
    }
    metrics["trace.ops_per_s"] = (traced_rate / scale, "1/s")
    metrics["trace.overhead"] = (plain_rate / traced_rate, "ratio")
    ops = plain["ops"] + traced["ops"]
    return {
        "workload": name,
        "ops": ops,
        "failed": sum(r["explicit"] + r["wrong"] for r in (plain, traced)),
        "wrong": plain["wrong"] + traced["wrong"] + out["warmup"]["wrong"],
        "reasons": {
            reason: plain["reasons"].get(reason, 0) + traced["reasons"].get(reason, 0)
            for reason in {**plain["reasons"], **traced["reasons"]}
        },
        "spans": out["spans"],
        "scale": out["scale"],
        "metrics": metrics,
    }


def scale_line(scale: dict) -> str:
    return (f"   times scaled by x{scale['factor']:.4f}: "
            f"probe median {scale['probe_s'] * 1e3:.4f} ms")


def report(result: dict, traced: bool) -> None:
    """Human-readable lines for one workload."""
    name, ops, failed = result["workload"], result["ops"], result["failed"]
    print(f"== {name}: {ops} ops, {failed} failed ({result['wrong']} with a wrong output)")
    for reason, count in sorted(result["reasons"].items()):
        print(f"   failure x{count}: {reason}")
    metrics = result["metrics"]
    if traced:
        layers = sorted(
            (k.rsplit(".", 1)[0] for k in metrics if k.endswith(".share")),
            key=lambda layer: -metrics[f"{layer}.share"][0],
        )
        for layer in layers:
            print(f"   {layer:9s} share {metrics[layer + '.share'][0]:7.2%}  "
                  f"self {metrics[layer + '.self_s'][0] * 1e3:10.4f} ms/op  "
                  f"raised {metrics[layer + '.raised'][0]:.4g}/op")
        busiest = sorted((k for k in metrics if k.endswith(".calls") and metrics[k][0] > 0),
                         key=lambda k: -metrics[k[: -len("calls")] + "self_s"][0])
        for key in busiest:
            fn = key[: -len(".calls")]
            print(f"     {fn:48s} {metrics[key][0]:12.6g} calls/op  "
                  f"{metrics[fn + '.self_s'][0] * 1e3:10.4f} ms/op self")
        print(scale_line(result["scale"]))
        print(f"   trace.ops_per_s {metrics['trace.ops_per_s'][0]:.4f} 1/s, "
              f"overhead x{metrics['trace.overhead'][0]:.3f}; "
              f"{result['spans']['count']} spans in {result['spans']['file']}")
        return
    unit, per_op = result["work"]
    tail = result["tail"]
    raw = result["raw"]
    notes = {
        "ops_per_s": f"{metrics['ops_per_s'][0] * per_op:.4f} {unit}/s; "
                     f"raw {raw['ops_per_s']:.4f}",
        "op_p50_ms": f"raw {raw['op_p50_ms']:.4f}",
        "op_tail_ms": f"p{tail['percentile']} of {tail['samples']} samples, "
                      f">= {tail['beyond']} beyond it; raw {raw['op_tail_ms']:.4f}",
        "pass_frac": f"fail_frac {failed}/{ops} = {failed / ops:.4f}",
        "setup_s": "median of " + ", ".join(f"{t:.4f}" for t in result["setup_times"]),
    }
    for key, (value, unit_name) in metrics.items():
        print(f"   {key:12s} {value:14.6f} {unit_name:5s} {notes.get(key, '')}")
    print(scale_line(result["scale"]))
    env = result["env"]
    print(f"   env: nproc {env['nproc']}, {env['cpu']}, Python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, {env['blas']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "phaseframe" / "__init__.py").is_file():
        print(f"error: no phaseframe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runner = trace if args.trace else measure
    deadline = time.monotonic() + BUDGET_S * len(names)
    results = []
    try:
        for name in names:
            results.append(runner(name, args.seed, args.seconds, deadline))
            report(results[-1], bool(args.trace))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    prefix = len(names) > 1
    summary = {
        "correct": all(r["wrong"] == 0 for r in results),
        "attempted": sum(r["ops"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{key}" if prefix else key): {"value": value, "unit": unit}
            for r in results
            for key, (value, unit) in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
