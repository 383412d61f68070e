"""Benchmark of ldprobust, driven through its public API from outside the library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from `src/`.
Workloads (see workloads.py and BENCHMARK.json):

  sweep_d5     three harness.sweep runs per unit (criterion 6's d=5 configs),
               2 worker processes in the untraced run
  trial_d128   one harness.run_trial per unit at n=4000, k=20, d=128
  certify_d12  one gram.sandwich_check per unit on a random 12x12 matrix

`--trace 0` measures with tracing off and prints the end-to-end metrics:
setup_s (median of several fresh interpreters that import the library and
build the workload inputs), ops_per_s (operations that passed their checks
per wall second of the timed loop; an operation is a trial, or a sandwich
certificate on certify_d12), peak_rss_mb (ru_maxrss of the process and its
children) and ok_frac (1 - failed / attempted).

`--trace 1` runs single-process: after a small warm-up, each unit runs twice,
once untraced and once with spans recorded around the public functions of
each layer (tracing.py), and the per-layer metrics are printed.

Every run writes results/<workload>-seed<N>-trace<T>.json next to this file,
with the environment, fingerprints and, for traced runs, the spans.  The
last line of standard output is one JSON object: correct, attempted, failed,
metrics.  `--smoke` shrinks every workload to a tiny size (see smoke.py).
"""

from __future__ import annotations

import os

# One BLAS thread per process, set before numpy loads; sweep workers inherit
# it.  Two cores run two sweep workers, and single-process workloads avoid
# BLAS threads spinning against other load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import glob
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SWEEP_WORKERS = 2
SETUP_PROBES = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny workload sizes")
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the inputs, then exit (times setup_s)")
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        ap.error("--seed must lie in [0, 2^63)")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def load_library():
    """Import ldprobust from this checkout's src/, never from an installed copy."""
    pkg = SRC / "ldprobust"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: no ldprobust sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import ldprobust
    if Path(ldprobust.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported ldprobust from {ldprobust.__file__}, not {pkg}")
    return ldprobust


def build_workload(args, workers):
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    return WORKLOADS[args.workload](args.seed, args.smoke, workers, RESULTS)


def run_units(workload, seconds=None, units=None):
    """Run units 0, 1, ... and return the merged result and per-unit wall times.

    With `units` set, runs exactly that many.  Otherwise stops before a unit
    that, at the mean unit time so far, would end past `seconds`.
    """
    from workloads import UnitResult
    total = UnitResult()
    times: list[float] = []
    t0 = time.perf_counter()
    while True:
        if units is not None:
            if len(times) >= units:
                break
        elif times and time.perf_counter() - t0 + statistics.fmean(times) > seconds:
            break
        start = time.perf_counter()
        total.add(workload.run_unit(len(times)))
        times.append(time.perf_counter() - start)
    return total, times


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def setup_seconds(args) -> list[float]:
    """Wall time of fresh interpreters that import the library and build the inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    out = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        # A blocking wait: Popen.wait with a timeout polls in steps of up to 50 ms.
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL) as probe:
            code = probe.wait()
        out.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with code {code}")
    return out


def blas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy, if found."""
    import numpy as np
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs_dir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def git_revision():
    """HEAD of the checkout, or None when ROOT is not the top of a git work tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              timeout=30, capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    top, rev = done.stdout.splitlines()
    return rev if Path(top).resolve() == ROOT else None


def environment(args, workers) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "workers": workers,
    }


def measure(args, workload) -> tuple:
    """Untraced timed loop; returns the checks' result, metrics and record extras."""
    result, times = run_units(workload, seconds=args.seconds)
    rss = peak_rss_mb()
    setups = setup_seconds(args)
    ok = result.attempted - result.failed
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": ok / sum(times), "unit": "1/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "ok_frac": {"value": ok / result.attempted, "unit": "ratio"},
    }
    return result, metrics, {"unit_s": times, "setup_probe_s": setups}


def measure_traced(args, workload, ldprobust) -> tuple:
    """Each unit twice, untraced and traced; returns the per-layer metrics.

    A unit of the smoke-sized workload first warms up lazy imports and first
    calls.  The order of the two passes alternates from unit to unit, so that
    a drift in machine speed does not bias the tracing overhead.
    """
    import tracing
    from workloads import WORKLOADS, UnitResult
    tracer = tracing.Tracer({name: getattr(ldprobust, name)
                             for name in ("harness", "adversary", "estimator", "gram")})
    warm_start = time.perf_counter()
    total = WORKLOADS[args.workload](args.seed, True, 1, RESULTS).run_unit(0)
    budget = args.seconds - (time.perf_counter() - warm_start)
    traced = UnitResult()
    plain_times, traced_times = [], []
    t0 = time.perf_counter()
    unit = 0
    while unit == 0 or (time.perf_counter() - t0) * (unit + 1) / unit <= budget:
        for with_trace in ((False, True) if unit % 2 else (True, False)):
            with tracer.active() if with_trace else contextlib.nullcontext():
                start = time.perf_counter()
                res = workload.run_unit(unit)
                elapsed = time.perf_counter() - start
            total.add(res)
            if with_trace:
                traced.add(res)
                traced_times.append(elapsed)
            else:
                plain_times.append(elapsed)
        unit += 1
    metrics = tracing.layer_metrics(
        tracer, ops=traced.attempted, traced_s=sum(traced_times),
        untraced_s=sum(plain_times), trials=traced.trials, margins=traced.margins)
    extras = {"unit_s": plain_times, "traced_unit_s": traced_times,
              "missing_wrap_targets": tracer.missing,
              "span_summary": tracer.summary()}
    return total, metrics, extras, tracer.spans


def main(argv=None) -> int:
    args = parse_args(argv)
    ldprobust = load_library()
    workers = SWEEP_WORKERS if args.workload == "sweep_d5" and not args.trace else 1
    RESULTS.mkdir(exist_ok=True)
    workload = build_workload(args, workers)
    if args.setup_only:
        return 0
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result, metrics, extras, spans = measure_traced(args, workload, ldprobust)
        with open(f"{stem}-spans.json", "w") as fh:
            json.dump({"fields": ["name", "parent", "start_s", "end_s"], "spans": spans}, fh)
    else:
        result, metrics, extras = measure(args, workload)
    record = {
        "environment": environment(args, workers),
        "attempted": result.attempted,
        "failed": result.failed,
        "fingerprints": result.fingerprints,
        "metrics": metrics,
        **extras,
    }
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": result.failed == 0, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
