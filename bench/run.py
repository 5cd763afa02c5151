"""advicecheck benchmark: one workload per process, end to end or traced.

    python3 bench/run.py --workload plan --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout. Workloads: plan, learn, record, longrun (see bench/README.md).

Every timed stretch is divided by the host's slowness at that moment: three
fixed reference kernels (numpy arrays, Python objects, fractions) are timed
before and after each rep and each set-up, and each time is scaled by the
kernels' nominal over measured seconds. ``wall_s`` sums each op's median scaled rep;
``setup_s`` (a fresh interpreter's import of advicecheck, seeded input
generation, config writing, warm-up) is the median of the scaled set-ups,
one before the timed reps and more spread over them. With ``--trace 1`` the
first half of the time runs untraced and the second half traced, and the
per-layer metrics are per traced rep. Outputs are checked outside the timed
region; the last line of stdout is the JSON result, after one line each of
environment and notes.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPS = 10  # set-ups per end-to-end run, spread over its timed stretch
MIN_REPS = 3  # per timed stretch; two each when a traced run splits its time
IMPORT_PROBE = "import time; t = time.perf_counter(); import advicecheck; print(time.perf_counter() - t)"
# the reference kernels' seconds at the host's fast state (Intel Xeon, 2
# vCPU); the scale is arbitrary but fixed, so scaled times compare across runs
NOMINAL_S = {"arrays": 0.03, "objects": 0.0055, "fractions": 0.0084}
_RNG = np.random.default_rng(0)
_ARRAY = _RNG.random((500, 243))


def _arrays():
    for _ in range(40):
        x = _RNG.random(_ARRAY.shape)
        np.less((x * _ARRAY).sum(axis=1), np.abs(x - _ARRAY).max(axis=1)).mean()


def _objects():
    table = {i: (i, i * 7 % 1000) for i in range(20_000)}
    return sum(a for a, _ in sorted(table.values(), key=lambda t: t[1])[::7])


def _fractions():
    total = Fraction(0)
    for i in range(1, 3000):
        total += Fraction(i, 7) * 3
    return total


KERNELS = {"arrays": _arrays, "objects": _objects, "fractions": _fractions}


def host_slowness() -> float:
    """The reference kernels' seconds now over their nominal seconds, averaged.

    The host's speed for one process swings by up to 1.7x for seconds to
    minutes (bench/README.md); dividing a time by the slowness measured next
    to it leaves the program's own cost. The kernels mirror the program's
    three kinds of work: numpy arrays, Python objects and exact fractions.
    """
    ratios = []
    for name, kernel in KERNELS.items():
        t0 = perf_counter()
        kernel()
        ratios.append((perf_counter() - t0) / NOMINAL_S[name])
    return sum(ratios) / len(ratios)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["plan", "learn", "record", "longrun"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def import_program():
    sys.path.insert(0, str(SRC))
    try:
        import advicecheck
    except ImportError as exc:
        raise SystemExit(f"cannot import advicecheck from {SRC}: {exc}")
    if Path(advicecheck.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"advicecheck was imported from {advicecheck.__file__}, not {SRC}")
    return advicecheck


def child_import_seconds() -> float:
    """Import time of advicecheck (numpy included) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout)


def environment(advicecheck) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = None
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy,
        "advicecheck": advicecheck.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


class Session:
    """Repeats a workload's fixed work, timing each rep and checking its outputs."""

    def __init__(self, workload):
        self.workload = workload
        self.reps = 0
        self.attempted = 0
        self.bad: dict[tuple[int, int], str] = {}

    def repeat(self, seconds: float, min_reps: int, between=None) -> tuple[float, float]:
        """Seconds of the fixed work at the host's nominal speed: the sum over
        its ops of each op's median rep, each rep divided by the host's
        slowness before and after it; and the mean unscaled rep.

        ``between`` runs after each rep, outside the timing, and says whether
        it did any work (the slowness is then measured again).
        """
        scaled: list[list[float]] = []
        total = 0.0
        end = perf_counter() + seconds
        before = host_slowness()
        while len(scaled) < min_reps or perf_counter() < end:
            r = self.reps
            ops = self.workload.rep(r)
            after = host_slowness()
            times = [op.seconds for op in ops]
            scaled.append([t * 2 / (before + after) for t in times])
            total += sum(times)
            self.reps += 1
            self.attempted += len(ops)
            for i, op in enumerate(ops):
                if op.error:
                    self.bad[(r, i)] = op.error
            for i, msg in self.workload.check(r, ops):
                self.bad.setdefault((r, i), msg)
            before = host_slowness() if between and between() else after
        return sum(statistics.median(op) for op in zip(*scaled)), total / len(scaled)

    def finish(self) -> None:
        for i, msg in self.workload.finish():
            for r in range(self.reps):
                self.bad.setdefault((r, i), msg)


def measure(workload_cls, args, workdir: Path):
    setup = []

    def set_up():
        before = host_slowness()
        imported = child_import_seconds()
        t0 = perf_counter()
        workload = workload_cls(args.seed, workdir / f"setup{len(setup)}")
        workload.warm_up()
        seconds = imported + perf_counter() - t0
        setup.append(seconds * 2 / (before + host_slowness()))
        return workload

    workload = set_up()
    session = Session(workload)
    notes = []
    if args.trace:
        from tracing import PER_LAYER, Tracer

        untraced, _ = session.repeat(args.seconds / 2, MIN_REPS - 1)
        untraced_reps = session.reps
        with Tracer() as tracer:
            traced, traced_mean = session.repeat(args.seconds / 2, MIN_REPS - 1)
        # per-layer numbers are per traced rep, so shares are of the mean rep
        metrics = tracer.metrics(session.reps - untraced_reps)
        metrics["trace.wall_s"] = traced_mean
        metrics["trace.overhead"] = traced / untraced - 1.0
        notes.append({"layer_share": [
            {"share": label, "measured": metrics[num] / metrics[den] if metrics[den] else 0.0,
             "predicted": predicted}
            for label, num, den, predicted in workload.shares
        ]})
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        # set-up repeats between reps, spread over the timed stretch
        start = perf_counter()

        def between():
            due = len(setup) < min(SETUP_REPS, 1 + (perf_counter() - start) * SETUP_REPS / args.seconds)
            if due:
                set_up()
            return due

        wall, _ = session.repeat(args.seconds, MIN_REPS, between=between)
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"setup_s": statistics.median(setup), "wall_s": wall,
                   "peak_rss_mib": peak_mib}
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}
    session.finish()
    notes += workload.notes()
    for (r, i), msg in sorted(session.bad.items()):
        print(f"failed: rep {r} op {i}: {msg}", file=sys.stderr)
    result = {
        "correct": not session.bad,
        "attempted": session.attempted,
        "failed": len(session.bad),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    advicecheck = import_program()
    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        result, notes = measure(workloads.WORKLOADS[args.workload], args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps({"env": environment(advicecheck)}))
    for note in notes:
        print(json.dumps(note))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
