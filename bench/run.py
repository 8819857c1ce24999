"""wholediff benchmark: one workload per process, one client in a closed loop.

    python3 bench/run.py --workload derive-tower --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
derive-tower, operator-algebra, verify-sweep, cli.

With ``--trace 0`` the run makes passes over a fixed list of ops (a fixed
number of cycles per workload, inputs drawn from the seed) until the ops
have taken ``--seconds``.  Each pass starts with a fresh import and set-up.

The speed a shared host gives one process swings by up to 2x, in phases
from a second to minutes long, for any Python code.  So every time is
stated at reference host speed: a fixed pure-Python kernel
(reference_kernel) is timed every 0.1 s between ops, and a time is
multiplied by REFERENCE_KERNEL_S over the kernel's median time around it.
An op's latency is the median over the passes of its scaled times.  The run
record keeps the raw times.  Metrics:

- setup_s: median over at least nine set-ups (one per pass) of importing
  wholediff afresh, building the contexts and generating the inputs.
- ops_per_s: ops in the list over the sum of their latencies.
- latency_p50_ms / latency_tail_ms: median and a fixed upper percentile of
  the ops' latencies (derive-tower p80, operator-algebra and verify-sweep
  p90, cli p75), the highest with at least ten ops beyond it where the list
  is long enough; the run record states the percentile and that count.
- ok_ratio: executions whose output was right over executions attempted
  (1 - failed ratio; a wrong output or an exception is a failure).
- peak_rss_mb: peak resident set of the process running the ops (for cli,
  the largest CLI subprocess).

With ``--trace 1`` the run executes the list twice, each time after a fresh
import: once plain, once with every layer boundary wrapped in a span
recorder (tracing.py).  It prints the per-layer self times (raw seconds)
and call counts, the exact size counts of the list,
``trace.overhead_ratio`` (traced over plain time of the same ops, both
scaled to reference host speed) and ``cli.startup_s`` (median raw time of
a subprocess that only imports wholediff.cli).  Spans are written to
``bench/out/trace-<workload>-seed<seed>.npz``.

Every run writes a record with the machine, the commit (when the checkout is
a git repository), a hash and line count of ``src/`` and all metrics to
``bench/out/``.  The last line of standard output is the JSON result.
The program is imported from ``src/`` next to this directory; without it
the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 9
STARTUP_REPEATS = 5
MODULES = ("symexpr", "wholederiv", "diffop", "depctx", "numcheck", "textio", "physcases")

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# Reported times are scaled to a host on which reference_kernel() takes this
# long (its median time between ops on the 2-vCPU machine the bounds were set
# on, in a quiet phase).
REFERENCE_KERNEL_S = 0.00105
KERNEL_INTERVAL_S = 0.1
KERNEL_WINDOW_S = 0.1

_perf = time.perf_counter


def reference_kernel() -> Fraction:
    """Fixed pure-Python work of the kind the engine does (exact rationals,
    tuples, sorting, a dict), independent of wholediff."""
    total = Fraction(0)
    table = {}
    for i in range(1, 150):
        total += Fraction(i, i + 3) * Fraction(2 * i - 1, 7) - Fraction(1, i)
        key = tuple(sorted(((i * 7) % 11, (i * 5) % 13, i % 3)))
        table[key] = table.get(key, 0) + 1
    return total


class HostSpeed:
    """Times of the reference kernel, sampled between ops all through a run.

    A slow phase of the host slows the kernel and the engine alike, so a
    time measured from t0 to t0 + dur is scaled by the kernel's median time
    over the samples taken within KERNEL_WINDOW_S of that interval."""

    def __init__(self):
        self.samples = []
        self.stamps = []
        self._last = float("-inf")

    def sample(self, force: bool = False) -> None:
        if not force and _perf() - self._last < KERNEL_INTERVAL_S:
            return
        t0 = _perf()
        reference_kernel()
        self._last = _perf()
        self.samples.append(self._last - t0)
        self.stamps.append(t0)

    def scaled(self, dur: float, t0: float) -> float:
        """dur, measured from t0, in reference time."""
        lo = bisect.bisect_left(self.stamps, t0 - KERNEL_WINDOW_S)
        hi = bisect.bisect_right(self.stamps, t0 + dur + KERNEL_WINDOW_S)
        if hi - lo < 3:
            mid = bisect.bisect_left(self.stamps, t0)
            lo, hi = max(0, mid - 2), min(len(self.stamps), mid + 2)
        return dur * REFERENCE_KERNEL_S / statistics.median(self.samples[lo:hi])


def load_modules(with_cli: bool):
    """Import wholediff afresh: drop every cached wholediff module first, so
    each set-up pays the import and starts with no state from earlier ones."""
    for name in [n for n in sys.modules if n == "wholediff" or n.startswith("wholediff.")]:
        del sys.modules[name]
    wd = importlib.import_module("wholediff")
    mods = {name: importlib.import_module(f"wholediff.{name}") for name in MODULES}
    if with_cli:
        mods["cli"] = importlib.import_module("wholediff.cli")
    return SimpleNamespace(wd=wd, all_modules=[wd, *mods.values()], **mods)


def quantile(sorted_values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def run_ops(ops, failures, tracer=None, latencies=None, speed=None):
    """Run one list of ops in order; returns the number that failed."""
    failed = 0
    for idx, (label, op) in enumerate(ops):
        if speed is not None:
            speed.sample()
        if tracer is not None:
            tracer.op_id = idx
        t0 = _perf()
        try:
            ok = op()
            err = None
        except Exception:  # a raised op is a failed op; keep going
            ok, err = False, traceback.format_exc(limit=3)
        if latencies is not None:
            latencies.append((_perf() - t0, label, t0))
        if not ok:
            failed += 1
            if len(failures) < 10:
                failures.append({"op": label, "error": err or "wrong output"})
    return failed


def pass_ops(workload, args, in_process=False):
    """Import wholediff afresh, set the workload up and list one pass of ops;
    returns (set-up seconds, set-up start, modules, ops).  Every pass lists
    the same inputs."""
    gc.collect()
    t0 = _perf()
    mods = load_modules(workload.name == "cli")
    workload.setup(mods, args.seed, args.tiny)
    setup_s = _perf() - t0
    ops = [op for c in range(workload.cycles_per_pass)
           for op in workload.cycle(c, in_process=in_process)]
    return setup_s, t0, mods, ops


def timed_run(workload, args, record):
    speed = HostSpeed()
    setups, passes, failures = [], [], []
    attempted = failed = 0
    spent = 0.0
    while spent < args.seconds or len(setups) < (1 if args.tiny else SETUP_REPEATS):
        speed.sample(force=True)
        setup_s, setup_t0, _, ops = pass_ops(workload, args)
        setups.append((setup_s, setup_t0))
        if spent >= args.seconds:  # extra set-up samples only
            continue
        latencies = []
        gc.collect()
        failed += run_ops(ops, failures, latencies=latencies, speed=speed)
        attempted += len(ops)
        spent += sum(t for t, _, _ in latencies)
        passes.append(latencies)
    speed.sample(force=True)

    # An op's latency: the median over passes of its scaled execution times.
    labels = [label for _, label, _ in passes[0]]
    scaled = [[speed.scaled(t, t0) for t, _, t0 in p] for p in passes]
    op_times = [statistics.median(p[i] for p in scaled) for i in range(len(labels))]
    times = sorted(op_times)
    n = len(times)
    tail = quantile(times, workload.tail_percentile / 100.0)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    record.update(
        passes=len(passes),
        tail=f"p{workload.tail_percentile} of {n} ops; {sum(t > tail for t in times)} ops beyond it",
        latency_ms_by_op=[(label, round(t * 1e3, 4)) for label, t in zip(labels, op_times)],
        raw_ms_by_pass=[[round(t * 1e3, 4) for t, _, _ in p] for p in passes],
        setup_raw_s=[s for s, _ in setups],
        kernel_median_ms=statistics.median(speed.samples) * 1e3,
        failures=failures,
    )
    metrics = {
        "setup_s": statistics.median(speed.scaled(s, t0) for s, t0 in setups),
        "ops_per_s": n / sum(times),
        "latency_p50_ms": quantile(times, 0.5) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    return attempted, failed, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}


def cli_startup_s() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(STARTUP_REPEATS):
        t0 = _perf()
        subprocess.run([sys.executable, "-c", "import wholediff.cli"], env=env, check=True,
                       cwd=OUT_DIR, timeout=60)
        samples.append(_perf() - t0)
    return statistics.median(samples)


def traced_run(workload, args, record):
    import tracing

    speed = HostSpeed()
    failures = []
    walls = []
    failed = 0
    for traced in (False, True):
        _, _, mods, ops = pass_ops(workload, args, in_process=True)
        tracer = None
        if traced:
            tracer = tracing.Tracer()
            tracing.install_layers(tracer, mods)
        latencies = []
        gc.collect()
        speed.sample(force=True)
        failed += run_ops(ops, failures, tracer, latencies, speed)
        speed.sample(force=True)
        walls.append(sum(speed.scaled(t, t0) for t, _, t0 in latencies))
    values = tracing.layer_values(tracer)
    values.update(workload.counts)
    values["trace.overhead_ratio"] = walls[1] / walls[0]
    values["cli.startup_s"] = cli_startup_s()
    span_file = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.npz"
    tracer.write(span_file)
    record.update(plain_s=walls[0], traced_s=walls[1], spans=len(tracer.start),
                  span_file=str(span_file.relative_to(ROOT)), failures=failures)
    units = dict(tracing.LAYER_METRICS)
    return 2 * len(ops), failed, {k: (values[k], units[k]) for k in units}


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        src_lines += data.count(b"\n")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest inputs, one set-up (self-test)")
    args = p.parse_args(argv)

    if not (SRC / "wholediff" / "__init__.py").is_file():
        print(f"error: the program's sources are missing: {SRC / 'wholediff'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    # Third-party imports are not part of the program's set-up time.
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401

    workload = workloads.WORKLOADS[args.workload]()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "machine": machine_info()}
    try:
        run = traced_run if args.trace else timed_run
        attempted, failed, metrics = run(workload, args, record)
    finally:
        teardown = getattr(workload, "teardown", None)
        if teardown is not None:
            teardown()

    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    info = record["machine"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {attempted} ops, {failed} failed")
    print(f"# machine: nproc={info['nproc']} cpu={info['cpu']!r} python={info['python']} "
          f"numpy={info['numpy']} scipy={info['scipy']} src_lines={info['src_lines']}")
    print(f"# commit: {info['commit']} src_sha256={info['src_sha256'][:16]}")
    for key in ("tail", "passes", "plain_s", "traced_s", "spans"):
        if key in record:
            print(f"# {key}: {record[key]}")
    for f in record.get("failures", []):
        print(f"# FAILED {f['op']}: {f['error'].strip().splitlines()[-1]}")
    for k, (v, u) in metrics.items():
        print(f"# {k} = {v:.6g} {u}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
