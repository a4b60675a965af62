"""Benchmark runner for ecgarr.

Run from the repository root:

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the current directory; the
runner exits with an error when it is not there.  Records are generated
from the seed into ``.bench_work/`` and the program reads only those
files.  With ``--trace 0`` the last line of standard output is a JSON
object with every end-to-end metric; with ``--trace 1`` it holds every
per-layer metric, half the time runs untraced (for the overhead ratio)
and the spans are written to ``.bench_work/<workload>-<seed>/trace.json``.
Earlier lines describe the environment, the records and the failure rate.
"""

import os

# one BLAS thread, set before numpy loads: with the default pool the
# eigendecomposition in fit_pca took 0.003 s in some fresh processes
# and 0.37 s in others
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import ctypes
import glob
import json
import resource
import shutil
import statistics
import sys
import time
import traceback

SETUP_REPEATS = 3
TRACED_OPS = 2


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ecgarr", "__init__.py")):
        _fail(f"no package source at {src}/ecgarr; run from the repository root")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import ecgarr
    import ecgarr.cli  # noqa: F401  (imports every module the workloads use)
    elapsed = time.perf_counter() - start
    if not os.path.abspath(ecgarr.__file__).startswith(src + os.sep):
        _fail(f"imported ecgarr from {ecgarr.__file__}, not from {src}")
    return elapsed


def _blas_threads():
    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _environment():
    import platform

    import numpy
    import scipy

    import ecgarr

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "ecgarr": ecgarr.__version__,
            "blas_threads": _blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]}


def _quantile(values, q):
    """Quantile by linear interpolation between order statistics."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Tally:
    """Outcome of the operations run in one phase."""

    def __init__(self):
        self.walls = []         # seconds per operation
        self.per_beat = []      # stream: seconds of every beat, in run order
        self.per_call = []      # evaluate: seconds per operation / beats it scored
        self.attempted = 0
        self.failed = 0


def _run_phase(workload, tally, *, seconds=0.0, ops=None):
    """Closed loop: the next operation starts when the previous ends.

    Runs ``ops`` operations when given, else until ``seconds`` elapse.
    """
    deadline = time.perf_counter() + seconds
    done = 0
    while done < ops if ops is not None else time.perf_counter() < deadline:
        done += 1
        try:
            wall, latencies, outcome = workload.run()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            tally.attempted += workload.ops_per_run
            tally.failed += workload.ops_per_run
            continue
        attempted, failed, beats = workload.check(outcome)
        tally.attempted += attempted
        tally.failed += failed
        tally.walls.append(wall)
        if latencies is not None:
            tally.per_beat.extend(latencies)
        elif beats:
            tally.per_call.append(wall / beats)


def _end_to_end(tally, setup_s):
    if tally.per_beat:
        # quantiles over every beat of the run: the host's speed swings
        # between levels up to 1.8x apart, often within a second, so the
        # median and the mean fall between the levels and move with their
        # mix; the 2nd percentile stays inside the fastest level and the
        # 95th inside the slowest, while the 99th moves with host stalls
        fast = _quantile(tally.per_beat, 0.02)
        slow = _quantile(tally.per_beat, 0.95)
    else:
        # an evaluate call gives every beat's verdict at once, so each of
        # its beats costs the call's time divided by its beats
        fast = slow = statistics.median(tally.per_call)
    return {
        "setup_s": setup_s,
        "beat_us.p02": 1e6 * fast,
        "beat_us.p95": 1e6 * slow,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except OSError as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")
    import_s = _import_package(root)

    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    work_dir = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)

    prepare_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.prepare(work_dir, args.seed)
        prepare_s.append(time.perf_counter() - start)
    workload.load_reference()
    if workload.reference is None:
        _fail(f"no reference output stored for {args.workload} variant {workload.variant}")
    setup_s = import_s + statistics.median(prepare_s)

    measured = Tally()
    traced = Tally()
    if args.trace:
        _run_phase(workload, measured, seconds=args.seconds / 2)
        # each traced operation follows an untraced one, so that the
        # overhead ratio compares operations run at nearly the same time
        paired = Tally()
        tracer = tracing.Tracer()
        for op in range(TRACED_OPS):
            _run_phase(workload, paired, ops=1)
            tracer.op = op
            tracer.install()
            try:
                _run_phase(workload, traced, ops=1)
            finally:
                tracer.uninstall()
        measured.attempted += paired.attempted
        measured.failed += paired.failed
    else:
        _run_phase(workload, measured, seconds=args.seconds)
    workload.record_properties()

    attempted = measured.attempted + traced.attempted
    failed = measured.failed + traced.failed
    properties = {
        "variant": workload.variant,
        "beats_per_record": [st.beats for st in workload.stats],
        "arrhythmic_share": sum(st.arrhythmic for st in workload.stats)
        / sum(st.beats for st in workload.stats),
        "normal_morphology_arrhythmic_share": sum(st.a_beats for st in workload.stats)
        / sum(st.beats for st in workload.stats),
        "dropped_beats": sum(st.dropped for st in workload.stats),
        **workload.properties,
    }
    print("environment " + json.dumps(_environment(), sort_keys=True))
    print("records " + json.dumps(properties, sort_keys=True))
    print(f"fail_rate {failed / attempted if attempted else 1.0:.6f} ({failed}/{attempted})")

    if not (measured.per_beat or measured.per_call) or (args.trace and (not traced.walls or not paired.walls)):
        _fail("no operation completed")
    if args.trace:
        ops_traced = traced.attempted
        stats = tracing.SpanStats(tracer, ops_traced)
        overhead = sum(traced.walls) / sum(paired.walls)
        values = tracing.per_layer_metrics(stats, overhead, sum(traced.walls))
        tracer.write(os.path.join(work_dir, "trace.json"),
                     {"workload": args.workload, "seed": args.seed, "ops": ops_traced,
                      "traced_walls_s": traced.walls, "per_layer": values})
        wanted = spec["per_layer"]
    else:
        values = _end_to_end(measured, setup_s)
        wanted = spec["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        _fail("metrics computed differ from BENCHMARK.json: "
              + ", ".join(sorted(set(values) ^ {m["name"] for m in wanted})))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
