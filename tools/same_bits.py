"""Same-bits check: run the benchmark's cases under two checkouts and list
every case whose artifacts or failure cause differ.

    python3 tools/same_bits.py OLD NEW --workload monodromy-scan flow-sweep \\
        --seeds 1009 1 2 3 [--cases N]

``OLD`` and ``NEW`` are checkout directories.  For each workload and seed,
each checkout runs in its own subprocess, with one BLAS thread as in
``bench/run.py``: it imports the library from its own ``src`` and
``bench/workloads.py``, generates the seeded cases under a temporary
directory, and runs ``workloads.run_case`` on every case (the first ``N``
with ``--cases``) and on the workload's probe.  The digest of each case's
deterministic artifacts and its failure cause are compared.  Prints every
case that differs; the exit status is 1 if there is one, else 0.  Each
says whether the case's failure kind changed: its cause with the numbers
masked (``workloads.cause_kind``) but for a leading exit code, so a case
that fails the same check on both sides with another residual keeps its
kind, and one that exits with another code does not.  Each is followed by its
residuals on both sides: every one at or over its tolerance, and for a
flow the largest conjugacy residual of ``drift.json``, which has no
tolerance.  That is the report a change of bits gives for each failure it
flips.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from functools import cache
from importlib import import_module
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("flow-sweep", "monodromy-scan")
KIND_CHANGED = "failure kind changed"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# argv: checkout, workload, seed, output directory, case limit (-1: all);
# prints one JSON list of [label, digest, cause, residuals], the residuals
# as {name: [value, tolerance or None]}
CHILD = r"""
import json, sys
from pathlib import Path
root, workload, seed, out, limit = sys.argv[1:]
sys.path[:0] = [str(Path(root) / "src"), str(Path(root) / "bench")]
import workloads
cases, probe = workloads.generate(workload, int(seed), Path(out))
if int(limit) >= 0:
    cases = cases[:int(limit)]
if probe is not None:
    probe.label = f"{workload}/{probe.label}"
    cases.append(probe)
rows = []
for case in cases:
    result = workloads.run_case(case)
    residuals = {k: list(v) for k, v in result.residuals.items()}
    if case.kind == "flow" and (case.out_dir / "drift.json").exists():
        drift = json.loads((case.out_dir / "drift.json").read_text())
        residuals["conjugacy_residual"] = [
            max(drift["conjugacy_residual"]), None]
    rows.append([case.label, result.digest, result.cause, residuals])
print(json.dumps(rows))
"""


def start(checkout, workload, seed, out_dir, limit):
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    return subprocess.Popen(
        [sys.executable, "-c", CHILD, str(Path(checkout).resolve()),
         workload, str(seed), str(out_dir), str(limit)],
        stdout=subprocess.PIPE, env=env, text=True)


def finish(proc, checkout):
    out, _ = proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: case runner exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


@cache
def workloads():
    """This checkout's ``bench/workloads.py``, which imports the library."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    return import_module("workloads")


def cause_kind(cause):
    """The failure kind of a cause: its leading ``exit N:`` as it is and
    the rest with its numbers masked (``workloads.cause_kind``); None for a
    case that passed."""
    if cause is None:
        return None
    code = re.match(r"exit \d+: ", cause)
    code = code.group() if code else ""
    return code + workloads().cause_kind(cause[len(code):])


def differences(old, new):
    """One line per case whose digest or failure cause differs between two
    runs' ``[label, digest, cause, ...]`` rows, or that only one run has,
    ending in whether its failure kind changed (a case only one run has
    changed it)."""
    before = {label: (digest, cause) for label, digest, cause, *_ in old}
    after = {label: (digest, cause) for label, digest, cause, *_ in new}
    out = []
    for label in dict.fromkeys([*before, *after]):
        a, b = before.get(label), after.get(label)
        if a != b:
            same = a and b and cause_kind(a[1]) == cause_kind(b[1])
            out.append(f"{label}: {a} -> {b}; "
                       + ("same failure kind" if same else KIND_CHANGED))
    return out


def residual_line(residuals):
    """A case's residuals at or over their tolerances, as the benchmark
    words a failure, and those without a tolerance; ``-`` for a case
    that is not there."""
    if residuals is None:
        return "-"
    words = [f"{name} {value:.3e}" if tol is None else
             f"{name} {value:.3e} >= {tol:.0e}"
             for name, (value, tol) in residuals.items()
             if tol is None or not value < tol]
    return "; ".join(words) or "none over tolerance"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1009])
    parser.add_argument("--cases", type=int, default=-1,
                        help="run only the first N cases (and the probe)")
    args = parser.parse_args(argv)

    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for workload in args.workload:
            for seed in args.seeds:
                dirs = [Path(tmp) / f"{workload}-{seed}-{side}"
                        for side in ("old", "new")]
                procs = [start(root, workload, seed, d, args.cases)
                         for root, d in zip((args.old, args.new), dirs)]
                old, new = (finish(p, root) for p, root
                            in zip(procs, (args.old, args.new)))
                lines = differences(old, new)
                differ += len(lines)
                failed = sum(row[2] is not None for row in new)
                changed = sum(line.endswith(KIND_CHANGED) for line in lines)
                print(f"{workload} seed {seed}: {len(new)} cases, "
                      f"{failed} failed, {len(lines)} differ, {changed} "
                      "changed failure kind")
                sides = [{row[0]: row[3] for row in rows}
                         for rows in (old, new)]
                for line in lines:
                    print(f"  {line}")
                    label = line.partition(": ")[0]
                    for side, found in zip(("old", "new"), sides):
                        print(f"    {side}: "
                              f"{residual_line(found.get(label))}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
