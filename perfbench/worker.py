"""One benchmark workload in a fresh interpreter.

run.py starts this script once per process it needs; by hand:

    python3 perfbench/worker.py --workload sweep --seed 3 --mode measure --seconds 5

Modes: ``setup`` times import + inputs + first op and exits; ``measure``
then runs whole passes of ops for --seconds; ``trace`` runs --seconds/2
untraced and --seconds/2 with the layer tracer installed.  The last line of
stdout is one JSON object.
"""

import os

# pin BLAS/OpenMP to one thread and drop the series-tolerance override before
# numpy or the library is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PHASE_FRAME_TOL", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
TMP_DIR = ROOT / ".perfbench_tmp"
SPAN_DIR = ROOT / ".perfbench_out"


def import_library():
    """Import phaseframe from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import phaseframe
    import phaseframe.cli  # noqa: F401  (the package does not import its CLI)

    if Path(phaseframe.__file__).resolve().parent != (src / "phaseframe").resolve():
        raise SystemExit(f"phaseframe imported from {phaseframe.__file__}, not {src}")
    return phaseframe


class Log:
    """Latency and outcome of every op of one phase."""

    def __init__(self):
        self.latencies: list[float] = []
        self.explicit = 0
        self.wrong = 0
        self.reasons: Counter = Counter()

    def summary(self) -> dict:
        return {
            "ops": len(self.latencies),
            "op_time_s": sum(self.latencies),
            "explicit": self.explicit,
            "wrong": self.wrong,
            "reasons": dict(self.reasons),
        }


def run_op(workload, x, log: Log):
    """Time one op, check it, and record its outcome; returns its outputs.

    A check that raises ExplicitFailure marks an op that reported its own
    failure; any other exception from the check marks a wrong output.
    """
    start = time.perf_counter()
    try:
        out = workload.run(x)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        log.latencies.append(time.perf_counter() - start)
        log.explicit += 1
        log.reasons[f"raised {type(exc).__name__}"] += 1
        return None
    log.latencies.append(time.perf_counter() - start)
    try:
        workload.check(x, out)
    except Exception as exc:
        from workloads import ExplicitFailure

        if isinstance(exc, ExplicitFailure):
            log.explicit += 1
            log.reasons[str(exc)] += 1
        else:
            log.wrong += 1
            log.reasons[f"wrong: {exc}"] += 1
    return out


class Probe:
    """Machine-speed probe: a fixed mix of interpreter work and small numpy
    calls that uses no library code and stays in cache.

    The host is shared, so its speed drifts by tens of percent over minutes.
    The probe is timed between ops in the same process, and every time is
    scaled by REFERENCE_S / median(probe).  The reference is about the
    median on a 2-vCPU Intel Xeon VM; it only sets the scale and must never
    change.
    """

    EVERY_S = 0.2
    REFERENCE_S = 1.0e-3

    def __init__(self, np):
        self.np = np
        self.x = np.linspace(0.0, 1.0, 256)
        self.samples: list[float] = []
        self.last = -float("inf")

    def _once(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(10000):
            acc += i * i % 7
        for k in range(100):
            self.np.exp(-0.5 * k * self.x).sum()
        return time.perf_counter() - start

    def sample(self) -> None:
        """Record one probe: the faster of two back-to-back runs."""
        self.samples.append(min(self._once(), self._once()))
        self.last = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self.last >= self.EVERY_S

    def scale(self) -> dict:
        median = sorted(self.samples)[len(self.samples) // 2]
        return {"probe_s": median, "factor": self.REFERENCE_S / median}


def run_passes(workload, seconds: float, probe: Probe) -> Log:
    """Whole passes over the workload's ops until `seconds` have elapsed,
    probing the machine's speed between ops."""
    log = Log()
    deadline = time.perf_counter() + seconds
    while True:
        for x in workload.pass_inputs():
            run_op(workload, x, log)
            if probe.due():
                probe.sample()
        if time.perf_counter() >= deadline:
            return log


def environment(np, scipy) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    pf = import_library()
    import workloads

    TMP_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_DIR)
    try:
        workload = workloads.WORKLOADS[args.workload](pf, args.seed, workdir)
        warmup = Log()
        run_op(workload, workload.pass_inputs()[0], warmup)
        result = {"setup_s": time.perf_counter() - t0, "warmup": warmup.summary(),
                  "unit": workload.unit, "per_op": workload.per_op}
        import numpy
        import scipy

        probe = Probe(numpy)
        if args.mode == "measure":
            log = run_passes(workload, args.seconds, probe)
            result["measure"] = log.summary()
            result["latencies_s"] = log.latencies
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result["env"] = environment(numpy, scipy)
        elif args.mode == "trace":
            from tracing import Tracer

            result["untraced"] = run_passes(workload, args.seconds / 2, probe).summary()
            with Tracer() as tracer:
                traced = run_passes(workload, args.seconds / 2, probe)
            result["traced"] = traced.summary()
            result["layers"] = tracer.metrics(len(traced.latencies), sum(traced.latencies))
            SPAN_DIR.mkdir(exist_ok=True)
            spans = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.write_spans(str(spans))
            result["spans"] = {"file": str(spans.relative_to(ROOT)), "count": len(tracer.spans)}
        if probe.samples:
            result["scale"] = probe.scale()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
