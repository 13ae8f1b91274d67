"""Benchmark: time to a verified flow / monodromy result, per workload.

Run from the repository root:

    python3 bench/run.py --workload flow-sweep --seed 1 --seconds 55 --trace 0

The workload's case list is generated from the seed.  The runner makes a
fixed number of passes over it (fewer if the next pass is predicted to end
after ``--seconds``, never none), and checks every case's outputs.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
makes one untraced and one traced pass, so that it can report its own
overhead.  Details (per-case times, residuals, failure causes,
environment) go to ``bench/out/<workload>-s<seed>-t<trace>/``.  See
``bench/README.md``.
"""

import os

# One BLAS/OpenMP thread, set before numpy is imported (shared 2-core host).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 3
WORKLOADS = ("flow-sweep", "monodromy-scan")
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); "
                "sys.path.insert(0, sys.argv[1]); import isomonodromy.cli; "
                "print(time.perf_counter() - t)")
# name -> unit: the end-to-end metrics of BENCHMARK.json, then the raw
# times, which are printed and kept in result.json only
END_TO_END = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
RAW_TIMES = {"wall_s": "s", "cpu_s": "s"}


def load_library():
    """Import the library from this checkout's ``src``."""
    sys.path.insert(0, str(SRC))
    try:
        import isomonodromy
        import isomonodromy.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(
            f"bench: cannot import isomonodromy from {SRC}: {exc}")
    if SRC not in Path(isomonodromy.__file__).resolve().parents:
        raise SystemExit(f"bench: isomonodromy was imported from "
                         f"{isomonodromy.__file__}, not from {SRC}")


def fingerprint():
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "cpu": cpu,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


# The reference computation: a fixed loop of small complex matrix updates
# driven from Python, like the library's own hot loops.
REF_MATRIX = np.array([[0.3 + 0.1j, -0.2, 0.5j, 0.1],
                       [0.4, 0.1 - 0.3j, -0.1, 0.2j],
                       [-0.5j, 0.2, 0.3, -0.4 + 0.1j],
                       [0.1, 0.3j, -0.2, 0.2 - 0.2j]])
REF_STEPS = 1000
REF_SAMPLES = 3


def reference_s():
    """Median time of a few runs of the reference computation."""
    times = []
    for _ in range(REF_SAMPLES):
        t = time.perf_counter()
        y = np.eye(4, dtype=complex)
        for _ in range(REF_STEPS):
            y = y + 1e-4 * (REF_MATRIX @ y)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


@dataclass
class Sample:
    """One execution of one case."""

    result: object         # workloads.Result
    wall_s: float
    cpu_s: float
    ref_s: float           # reference time around the case (mean of the
                           # measurements just before and just after it)

    @property
    def wall_ref(self):
        return self.wall_s / self.ref_s


def run_passes(seconds, cases, run_case, repeats=1):
    """Up to ``repeats`` passes over the case list, fewer when the next pass
    is predicted to end after ``seconds``; always at least one.  The
    reference computation is timed before the first case and after each.

    Returns the samples of each case, in case-list order.
    """
    samples = [[] for _ in cases]
    start = time.perf_counter()
    ref = reference_s()
    for done in range(repeats):
        elapsed = time.perf_counter() - start
        if done and elapsed + elapsed / done > seconds:
            break
        for case, per_case in zip(cases, samples):
            w, c = time.perf_counter(), time.process_time()
            result = run_case(case)
            wall, cpu = time.perf_counter() - w, time.process_time() - c
            after = reference_s()
            per_case.append(Sample(result, wall, cpu, (ref + after) / 2))
            ref = after
    return samples


def list_time(samples, attr="wall_s"):
    """Time to run the case list once: each case's least time over its
    passes, summed.

    Contention from other tenants of the host only ever adds time, so the
    least of a few passes spread over the run is the steadier estimate.
    The number of passes is fixed per workload, so a faster program is not
    credited with a minimum over more samples.  With ``attr="wall_ref"``
    each case time is first divided by the reference time measured around
    it: the host slows both alike, in episodes that can last minutes.
    """
    return sum(min(getattr(x, attr) for x in per_case)
               for per_case in samples)


def traced_pass(cases, run_case, out_dir):
    """One traced pass; returns its samples and per-layer metrics."""
    tr = tracing.Tracer()
    tr.install()
    try:
        with tr.span("bench.pass"):
            w = time.perf_counter()
            samples = run_passes(0, cases, run_case)
            wall_s = time.perf_counter() - w
    finally:
        tr.remove()
    tr.dump(out_dir / "spans.json")
    return samples, tracing.per_layer(tr, wall_s)


def import_seconds():
    """Import time of the library in a fresh interpreter, as a user pays it."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return float(out.stdout)


def summarize(cases, samples, probe, probe_result):
    """Failures, correctness and per-class times over every executed case."""
    import workloads

    attempted = failed = 0
    correct = True
    failures, worst, per_class = [], {}, {}
    runs = [(case, [x.result for x in per_case])
            for case, per_case in zip(cases, samples)]
    if probe_result is not None:
        runs.append((probe, [probe_result]))
    for case, results in runs:
        digests = {r.digest for r in results}
        for r in results:
            attempted += 1
            for name, (v, tol) in r.residuals.items():
                worst[name] = max(worst.get(name, 0.0), v / tol)
            cause = r.cause
            if len(digests) > 1:
                cause = "artifacts differ between runs of the same input"
                correct = False
            correct &= not r.silent
            if cause:
                failed += 1
                failures.append({"case": case.label, "class": case.cls,
                                 "cause": cause,
                                 "kind": workloads.cause_kind(cause)})
    for case, per_case in zip(cases, samples):
        per_class.setdefault(case.cls, []).extend(x.wall_s for x in per_case)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "failures": failures,
            "error_ratio_max": max(worst.values(), default=0.0),
            "error_ratio_by_residual": worst,
            "case_s": per_class}


def print_report(args, setup, samples, summary, metrics, probe_s):
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(samples)} cases, {summary['attempted']} runs")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':48s} {summary['failed']}/{summary['attempted']}")
    print(f"  {'error_ratio_max':48s} {summary['error_ratio_max']:.3g} "
          f"(worst residual / its tolerance; < 1 passes)")
    for name, ratio in sorted(summary["error_ratio_by_residual"].items()):
        print(f"    {name:46s} {ratio:.3g}")
    for cls, times in summary["case_s"].items():
        print(f"  case {cls:14s} median {statistics.median(times):.3f} s  "
              f"max {max(times):.3f} s  ({len(times)} samples)")
    kinds = {}
    for f in summary["failures"]:
        kinds.setdefault((f["class"], f["kind"]), []).append(f["cause"])
    for (cls, kind), causes in sorted(kinds.items()):
        print(f"  failed {len(causes)}x [{cls}] {causes[0]}")
    print(f"  setup {setup['setup_s']:.3f} s (import "
          f"{statistics.median(setup['import_s']):.3f} s)  "
          f"probe {probe_s:.3f} s")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_library()
    import workloads

    out_dir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    import_s = [import_seconds() for _ in range(SETUP_REPEATS)]
    gen_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cases, probe = workloads.generate(args.workload, args.seed, out_dir)
        gen_s.append(time.perf_counter() - t0)
    setup = {"import_s": import_s, "generate_s": gen_s,
             "setup_s": statistics.median(import_s)
             + statistics.median(gen_s)}

    run_case = workloads.run_case
    if args.trace:
        # one untraced pass, then one traced pass: the difference is the
        # tracing overhead
        samples = run_passes(0, cases, run_case)
        traced, layers = traced_pass(cases, run_case, out_dir)
        layers["trace.overhead_s"] = list_time(traced) - list_time(samples)
        layers["trace.overhead_frac"] = (list_time(traced, "wall_ref")
                                         / list_time(samples, "wall_ref") - 1)
        samples = [a + b for a, b in zip(samples, traced)]
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER}
    else:
        samples = run_passes(args.seconds, cases, run_case,
                             workloads.REPEATS[args.workload])
        metrics = {
            "wall_ref": list_time(samples, "wall_ref"),
            "wall_s": list_time(samples),
            "cpu_s": list_time(samples, "cpu_s"),
            "setup_s": setup["setup_s"],
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {**END_TO_END, **RAW_TIMES}
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in metrics.items()}

    t0 = time.perf_counter()
    probe_result = workloads.run_case(probe) if probe is not None else None
    probe_s = time.perf_counter() - t0

    summary = summarize(cases, samples, probe, probe_result)
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "environment": fingerprint(), "setup": setup,
              "cases": [c.label for c in cases],
              "runs_per_case": [len(x) for x in samples],
              "probe_s": probe_s, "metrics": metrics, **summary}
    (out_dir / "result.json").write_text(json.dumps(detail, indent=1))

    print_report(args, setup, samples, summary, metrics, probe_s)
    reported = tracing.UNITS if args.trace else END_TO_END
    print(json.dumps({"correct": summary["correct"],
                      "attempted": summary["attempted"],
                      "failed": summary["failed"],
                      "metrics": {k: metrics[k] for k in reported}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
