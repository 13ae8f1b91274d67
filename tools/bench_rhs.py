"""Per-RHS timings of two checkouts in one process, alternated: one
isomonodromic right-hand side evaluation split into its stages.

    python3 tools/bench_rhs.py OLD NEW [--repeats 200] [--rounds 1] \\
        [--cases n2 n3 ...] [--out BENCH_rhs.json]

``OLD`` and ``NEW`` are checkout directories.  Both libraries are loaded
into this one process, each from its checkout's ``src`` under a package
name of its own (``src/`` imports only relatively), with one BLAS thread
as in ``bench/run.py``; each builds its states with its own checkout's
``bench/workloads.py``.  Every repeat times one library, then the other,
in ABBA order (old first in even repeats, new first in odd ones), so load
that shifts between them moves both sides of a pair alike.

The cases are the benchmark's: the 4-pole Fuchsian state at n = 2, 3 and
4 with a translation of pole 1, and the order-2 irregular state with an
irregular rate at its order-2 pole.  Two many-pole cases follow, ``k16``
and ``k64``: rank-2 Fuchsian states with 16 and 64 poles 0.5 apart on the
real line, with a translation of pole 1; they are drawn after the others,
so those keep their states.  Per case and repeat, each stage is timed on
a fresh state of its own, built from the flat vector, so no stage reads
what another built.  The stages read only ``FlowState.with_flat``,
``polar`` and ``gram_blocks``, the public functions and ``flows.RhsPlan``.
Before the clock of ``differential``, ``section`` and ``solve`` starts,
their state's polar coefficients (``polar``) and transposed Gram blocks
(``gram_blocks``) are built; ``regular_jets`` is left to the stages that
read it:

* ``build``: ``FlowState.with_flat``;
* ``differential``: ``direction_differential``;
* ``section``: ``flows._section_rates``, the extended system's dual rates
  along the case's direction, with the check of the direction's rates
  (``flows._checked_rates``) that ``direction_differential`` also runs;
* ``gram``: ``gram_blocks`` on a state whose ``polar`` is built;
* ``solve``: ``hamiltonian_vector_field``: the rank guard's singular
  values and the LU solves;
* ``rhs``: what the flow integrator calls, on the flat vector ``y``:
  ``plan(direction, plan.stage(y))`` with a ``flows.RhsPlan`` built once
  per case, as the integrator builds it once per flow.  It is the mean of
  ``STEP`` = 12 calls in a row, the evaluations of one DOP853 step, since
  the integrator makes them back to back; the first call after the other
  stages runs on cold caches, and alone it reads slower, by more for a
  shorter call.

The first five call the public functions on a state, so only ``rhs``
times the integrator's path.  Apart from these stages, and on the four
benchmark cases only:

* ``connection``: ``FlowState.connection().polar_parts`` on a fresh state
  per repeat, the round trip through a rational matrix that transport and
  verification read;
* ``monodromy``: ``monodromy_rep`` of the case's connection at its
  ``auto_base_point``, the keyhole transport that the ``monodromy``
  subcommand and every verification run; the connection and the base
  point are built once per case, outside the clock;
* ``verify``: ``verify_isomonodromy`` of the case's trajectory along its
  direction (the benchmark's path: the Fuchsian line, the irregular line of
  length ``IRREGULAR_LENGTH``), integrated once with 9 samples and verified
  at all 9 and at 3 of them (s = 0, 0.5, 1), one repeat for every 20 of
  the stages'.

Three warm-up repeats (one for ``verify``) are not recorded.  Per case and
stage, the JSON file holds the median microseconds of each side, and the
median and quartiles of the paired ratios NEW/OLD, one per repeat
(``summary``, ``connection``, ``monodromy``, ``verify``); ``per_round``
holds each side's medians per round of ``--repeats`` repeats.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
from importlib import import_module
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
STAGES = ("build", "differential", "section", "gram", "solve", "rhs")
CONNECTION = ("connection",)
MONODROMY = ("monodromy",)
VERIFY = ("verify3", "verify9")
CASES = ("n2", "n3", "n4", "irregular", "k16", "k64")
BENCHMARK_CASES = CASES[:4]
PACKAGE = "isomonodromy"
SIDES = ("old", "new")
WARMUP = 3
STEP = 12         # right-hand side evaluations per DOP853 step
clock = time.perf_counter


def load(checkout, name):
    """The library of ``checkout`` as the package ``name``, with its
    submodules, and its ``bench/workloads.py`` run against it."""
    src = Path(checkout).resolve() / "src" / PACKAGE
    spec = spec_from_file_location(name, src / "__init__.py",
                                   submodule_search_locations=[str(src)])
    lib = module_from_spec(spec)
    sys.modules[name] = lib
    spec.loader.exec_module(lib)
    for sub in ("cli", "flows", "serialize", "states", "symplectic"):
        import_module(f"{name}.{sub}")
    # workloads imports the library by its own name: alias it for the run
    aliases = {PACKAGE + key[len(name):]: mod
               for key, mod in list(sys.modules.items())
               if key == name or key.startswith(name + ".")}
    saved = {key: sys.modules.pop(key) for key in list(sys.modules)
             if key == PACKAGE or key.startswith(PACKAGE + ".")}
    sys.modules.update(aliases)
    try:
        path = Path(checkout).resolve() / "bench" / "workloads.py"
        spec = spec_from_file_location(f"{name}_workloads", path)
        workloads = sys.modules[spec.name] = module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        for key in aliases:
            del sys.modules[key]
        sys.modules.update(saved)
    return lib, workloads


class Side:
    """One checkout's library, cases and timed stages."""

    def __init__(self, checkout, name, cases):
        import numpy as np
        lib, wl = load(checkout, name)
        self.flows = flows = import_module(f"{name}.flows")
        self.mono = import_module(f"{name}.monodromy")
        self.hvf = import_module(f"{name}.symplectic").hamiltonian_vector_field
        rng = np.random.default_rng(1009)
        drawn, paths = {}, {}
        for n in (2, 3, 4):
            state = wl.fuchsian_state(rng, n, wl.FUCHSIAN_POLES)
            drawn[f"n{n}"] = (state, flows.Direction.translation(
                1, wl.FUCHSIAN_SHIFT))
            paths[f"n{n}"] = flows.FlowPath.line(state, 1, wl.FUCHSIAN_SHIFT)
        state = wl.irregular_state(rng)
        rate = wl.irregular_rate(rng, state.poles[0].lam_irr[0])
        drawn["irregular"] = (state, flows.Direction.irregular(0, [rate]))
        paths["irregular"] = flows.FlowPath.irregular_line(
            state, 0, [rate], length=wl.IRREGULAR_LENGTH)
        for K in (16, 64):   # drawn last: the cases above keep their states
            state = wl.fuchsian_state(rng, 2, [0.5 * j for j in range(K)])
            drawn[f"k{K}"] = (state, flows.Direction.translation(
                1, wl.FUCHSIAN_SHIFT))
        self.cases = {c: drawn[c] for c in cases}
        self.paths = {c: paths[c] for c in cases if c in paths}
        self.plans = {c: flows.RhsPlan(state)
                      for c, (state, _) in self.cases.items()}
        self.trajectories, self.loops = {}, {}

    def built(self, state, y):
        st = state.with_flat(y)
        st.polar, st.gram_blocks
        return st

    def stages(self, case):
        """One repeat of every stage of ``case``, in microseconds."""
        flows = self.flows
        state, direction = self.cases[case]
        y = state.flat()
        t0 = clock()
        state.with_flat(y)
        t1 = clock()
        st = self.built(state, y)
        t2 = clock()
        dH = flows.direction_differential(direction, st)
        t3 = clock()
        st = self.built(state, y)
        ts = clock()
        flows._section_rates(direction, st)
        te = clock()
        st = state.with_flat(y)
        st.polar
        t4 = clock()
        st.gram_blocks
        t5 = clock()
        st = self.built(state, y)
        t6 = clock()
        self.hvf(dH, st)
        t7 = clock()
        plan = self.plans[case]
        for _ in range(STEP):
            plan(direction, plan.stage(y))
        t8 = clock()
        return dict(zip(STAGES, (1e6 * dt for dt in (
            t1 - t0, t3 - t2, te - ts, t5 - t4, t7 - t6,
            (t8 - t7) / STEP))))

    def connection(self, case):
        st = self.cases[case][0]
        st = st.with_flat(st.flat())
        t0 = clock()
        st.connection().polar_parts
        return {"connection": 1e6 * (clock() - t0)}

    def monodromy(self, case):
        if case not in self.loops:
            conn = self.cases[case][0].connection()
            self.loops[case] = conn, self.mono.auto_base_point(
                conn.all_finite_poles())
        t0 = clock()
        self.mono.monodromy_rep(*self.loops[case])
        return {"monodromy": 1e6 * (clock() - t0)}

    def verify(self, case):
        flows = self.flows
        if case not in self.trajectories:
            self.trajectories[case] = flows.integrate_flow(
                self.cases[case][0], self.paths[case], n_samples=9)
        traj = self.trajectories[case]
        out = {}
        for samples, keep in ((3, slice(None, None, 4)), (9, slice(None))):
            sampled = flows.Trajectory(traj.samples[keep], traj.states[keep])
            t0 = clock()
            flows.verify_isomonodromy(sampled)
            out[f"verify{samples}"] = 1e6 * (clock() - t0)
        return out


def alternate(sides, measure, cases, repeats, warmup):
    """``measure(side, case)`` for both sides per repeat, in ABBA order:
    per side, case and stage, the list of recorded microseconds."""
    times = {name: {case: {} for case in cases} for name in sides}
    for rep in range(warmup + repeats):
        order = SIDES if rep % 2 == 0 else SIDES[::-1]
        for case in cases:
            for name in order:
                cells = measure(sides[name], case)
                if rep >= warmup:
                    for stage, us in cells.items():
                        times[name][case].setdefault(stage, []).append(us)
    return times


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    return q1, statistics.median(values), q3


def table(times):
    """Per case and stage: each side's median and the paired ratios'
    median and quartiles."""
    out = {}
    for case, cells in times["old"].items():
        out[case] = {}
        for stage, old in cells.items():
            new = times["new"][case][stage]
            ratios = [b / a for a, b in zip(old, new) if a > 0]
            q1, med, q3 = quartiles(ratios) if ratios else (None,) * 3
            out[case][stage] = {
                "old_us": statistics.median(old),
                "new_us": statistics.median(new),
                "ratio": med, "ratio_q1": q1, "ratio_q3": q3}
    return out


def cpu_model():
    """The processor's model name where Linux reports it."""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=200)
    ap.add_argument("--cases", nargs="+", choices=CASES, default=CASES)
    ap.add_argument("--out", default="BENCH_rhs.json")
    args = ap.parse_args(argv)
    for var in THREAD_VARS:       # before numpy loads its BLAS
        os.environ[var] = "1"

    cases = [c for c in CASES if c in args.cases]
    sides = {name: Side(getattr(args, name), f"{PACKAGE}_{name}", cases)
             for name in SIDES}
    bench = [c for c in cases if c in BENCHMARK_CASES]
    kinds = ((STAGES, Side.stages, cases, args.repeats, WARMUP),
             (CONNECTION, Side.connection, bench, args.repeats, WARMUP),
             (MONODROMY, Side.monodromy, bench, args.repeats, WARMUP),
             (VERIFY, Side.verify, bench, max(1, args.repeats // 20), 1))
    pooled = {kind: {name: {} for name in SIDES} for kind, *_ in kinds}
    rounds = {name: [] for name in SIDES}
    for _ in range(args.rounds):
        medians = {name: {} for name in SIDES}
        for kind, measure, which, repeats, warmup in kinds:
            times = alternate(sides, measure, which, repeats, warmup)
            for name in SIDES:
                for case, cells in times[name].items():
                    for stage, us in cells.items():
                        pooled[kind][name].setdefault(case, {}).setdefault(
                            stage, []).extend(us)
                        medians[name].setdefault(case, {})[stage] = \
                            statistics.median(us)
        for name in SIDES:
            rounds[name].append(medians[name])

    summary, connection, monodromy, verify = (table(pooled[kind])
                                              for kind, *_ in kinds)
    result = {
        "old": str(args.old), "new": str(args.new),
        "host": {"machine": platform.machine(), "processor": cpu_model(),
                 "cpus": os.cpu_count(), "python": platform.python_version()},
        "rounds": args.rounds, "repeats": args.repeats,
        "summary": summary, "connection": connection,
        "monodromy": monodromy, "verify": verify,
        "per_round": rounds,
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    for case in summary:
        cells = "  ".join(
            f"{stage} {v['old_us']:.0f}->{v['new_us']:.0f} "
            f"x{v['ratio']:.2f} [{v['ratio_q1']:.2f}, {v['ratio_q3']:.2f}]"
            for stage, v in {**summary[case], **connection.get(case, {}),
                             **monodromy.get(case, {}),
                             **verify.get(case, {})}.items())
        print(f"{case:10s} {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
