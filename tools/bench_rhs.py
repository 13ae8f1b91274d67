"""Per-RHS timings of two checkouts, alternated: one isomonodromic right-hand
side evaluation split into its stages.

    python3 tools/bench_rhs.py OLD NEW [--rounds 5] [--repeats 200] \\
        [--out BENCH_rhs.json]

``OLD`` and ``NEW`` are checkout directories.  Each round runs one
subprocess per checkout, in alternating order, with one BLAS thread as in
``bench/run.py``; it imports the library from the checkout's ``src`` and the
states from its ``bench/workloads.py``.  The cases are the benchmark's:
the 4-pole Fuchsian state at n = 2, 3 and 4 with a translation of pole 1,
and the order-2 irregular state with an irregular rate at its order-2 pole.
Two many-pole cases follow, ``k16`` and ``k64``: rank-2 Fuchsian states
with 16 and 64 poles 0.5 apart on the real line, with a translation of
pole 1; they are drawn after the others, so those keep their states.
Per case and repeat, each stage is timed on a fresh state of its own,
built from the flat vector, so no stage reads what another built.  Before
the clock of ``differential``, ``section``, ``gram`` and ``solve`` starts,
their state's polar coefficients (``polar``) and chart blocks
(``blocks``), which more than one stage reads, are built; ``regular_jets``
is left to the stages that read it, as in the flow's right-hand side.  So
``rhs`` also holds work that no stage times: ``polar``, ``blocks`` and the
reference lift.  ``section`` is the extended system's, no part of ``rhs``:

* ``build``: ``FlowState.with_flat``;
* ``differential``: ``direction_differential``;
* ``section``: ``flows._section_rates``, the extended system's dual rates
  along the case's direction (the q slots' on the Fuchsian cases, the b
  slots' pullbacks too on the irregular one);
* ``gram``: every block's ``gram_block()``;
* ``solve``: ``hamiltonian_vector_field`` less the ``gram`` time, since it
  assembles the Gram blocks itself;
* ``rhs``: one whole ``isomonodromic_rhs(...).flat()`` on a state it
  builds itself, as the flow integrator calls it.

and, apart from these stages and on the four benchmark cases only:

* ``connection``: ``FlowState.connection().polar_parts`` on a fresh state
  per repeat, the round trip through a rational matrix that transport and
  verification read;
* ``verify``: ``verify_isomonodromy`` of the case's trajectory along its
  direction (the benchmark's path: the Fuchsian line, the irregular line of
  length ``IRREGULAR_LENGTH``), integrated once with 9 samples and verified
  at all 9 and at 3 of them (s = 0, 0.5, 1), one repeat for every 20 of
  the stages'.

Each subprocess reports the median over its repeats in microseconds.  The
JSON file holds every round's medians per checkout and, per case and stage
(``summary``), per case (``connection``) and per case and sample count
(``verify``), the median over rounds and the ratio NEW/OLD.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
STAGES = ("build", "differential", "section", "gram", "solve", "rhs")
CONNECTION = ("connection",)
VERIFY = ("verify3", "verify9")

# argv: checkout, repeats; prints one JSON object {case: {stage: us}}
CHILD = r"""
import json, statistics, sys, time
from pathlib import Path
root, repeats = sys.argv[1], int(sys.argv[2])
sys.path[:0] = [str(Path(root) / "src"), str(Path(root) / "bench")]
import numpy as np
import workloads
from isomonodromy.flows import (Direction, FlowPath, Trajectory,
                                _section_rates, direction_differential,
                                integrate_flow, isomonodromic_rhs,
                                verify_isomonodromy)
from isomonodromy.symplectic import hamiltonian_vector_field

rng = np.random.default_rng(1009)
cases, paths = {}, {}
for n in (2, 3, 4):
    state = workloads.fuchsian_state(rng, n, workloads.FUCHSIAN_POLES)
    shift = workloads.FUCHSIAN_SHIFT
    cases[f"n{n}"] = (state, Direction.translation(1, shift))
    paths[f"n{n}"] = FlowPath.line(state, 1, shift)
state = workloads.irregular_state(rng)
rate = workloads.irregular_rate(rng, state.poles[0].lam_irr[0])
cases["irregular"] = (state, Direction.irregular(0, [rate]))
paths["irregular"] = FlowPath.irregular_line(
    state, 0, [rate], length=workloads.IRREGULAR_LENGTH)
for K in (16, 64):       # drawn last: the cases above keep their states
    state = workloads.fuchsian_state(rng, 2, [0.5 * j for j in range(K)])
    cases[f"k{K}"] = (state, Direction.translation(1, workloads.FUCHSIAN_SHIFT))

clock = time.perf_counter


def built(state, y):
    st = state.with_flat(y)
    st.polar, st.blocks
    return st


out = {}
for name, (state, direction) in cases.items():
    y = state.flat()
    times = {stage: [] for stage in ("build", "differential", "section",
                                     "gram", "solve", "rhs")}
    for rep in range(repeats + 3):       # three warm-up repeats
        t0 = clock()
        state.with_flat(y)
        t1 = clock()
        st = built(state, y)
        t2 = clock()
        dH = direction_differential(direction, st)
        t3 = clock()
        st = built(state, y)
        ts = clock()
        _section_rates(direction, st)
        te = clock()
        st = built(state, y)
        t4 = clock()
        for block in st.blocks:
            block.gram_block()
        t5 = clock()
        st = built(state, y)
        t6 = clock()
        hamiltonian_vector_field(dH, st)
        t7 = clock()
        isomonodromic_rhs(direction, state.with_flat(y)).flat()
        t8 = clock()
        if rep >= 3:
            gram = t5 - t4
            for stage, dt in zip(times, (t1 - t0, t3 - t2, te - ts, gram,
                                         (t7 - t6) - gram, t8 - t7)):
                times[stage].append(1e6 * dt)
    out[name] = {stage: statistics.median(v) for stage, v in times.items()}
# the four benchmark cases' round trip; at 16 and 64 poles it is wrong
for name in paths:
    state = cases[name][0]
    y = state.flat()
    runs = []
    for rep in range(repeats + 3):       # three warm-up repeats
        st = state.with_flat(y)
        t0 = clock()
        st.connection().polar_parts
        runs.append(1e6 * (clock() - t0))
    out[name]["connection"] = statistics.median(runs[3:])
# after every case's stages, so that no stage runs after a verification
for name, path in paths.items():
    traj = integrate_flow(cases[name][0], path, n_samples=9)
    for samples, keep in ((3, slice(None, None, 4)), (9, slice(None))):
        sampled = Trajectory(traj.samples[keep], traj.states[keep])
        runs = []
        for rep in range(max(1, repeats // 20) + 1):   # one warm-up
            t0 = clock()
            verify_isomonodromy(sampled)
            runs.append(1e6 * (clock() - t0))
        out[name][f"verify{samples}"] = statistics.median(runs[1:])
print(json.dumps(out))
"""


def cpu_model():
    """The processor's model name where Linux reports it."""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run(checkout, repeats):
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(Path(checkout).resolve()),
         str(repeats)], capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--repeats", type=int, default=200)
    ap.add_argument("--out", default="BENCH_rhs.json")
    args = ap.parse_args(argv)

    rounds = {"old": [], "new": []}
    for r in range(args.rounds):
        order = ("old", "new") if r % 2 == 0 else ("new", "old")
        for side in order:
            rounds[side].append(run(getattr(args, side), args.repeats))

    def table(stages):
        out = {}
        for case, cells in rounds["old"][0].items():
            if not set(stages) <= set(cells):
                continue
            out[case] = {}
            for stage in stages:
                med = {side: statistics.median(r[case][stage]
                                               for r in rounds[side])
                       for side in rounds}
                out[case][stage] = {
                    "old_us": med["old"], "new_us": med["new"],
                    "ratio": med["new"] / med["old"] if med["old"] else None}
        return out

    summary, verify = table(STAGES), table(VERIFY)
    connection = table(CONNECTION)
    result = {
        "old": str(args.old), "new": str(args.new),
        "host": {"machine": platform.machine(), "processor": cpu_model(),
                 "cpus": os.cpu_count(), "python": platform.python_version()},
        "rounds": args.rounds, "repeats": args.repeats,
        "summary": summary, "connection": connection, "verify": verify,
        "per_round": rounds,
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    for case in summary:
        cells = "  ".join(f"{stage} {v['old_us']:.0f}->{v['new_us']:.0f}"
                          for stage, v in {**summary[case],
                                           **connection.get(case, {}),
                                           **verify.get(case, {})}.items())
        print(f"{case:10s} {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
