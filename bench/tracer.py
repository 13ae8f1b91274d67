"""Out-of-program tracing of the library's layers.

The tracer replaces functions in the library's module namespaces with
wrappers that record a span (name, tag, start, end, parent) per call, and
restores the originals when it is removed.  A name bound by
``from x import y`` is a separate reference in the importing module, so
every module of the package that holds the original object gets the
wrapper.  Very hot methods are counted rather than spanned.  Wrappers
re-raise unchanged: ``flows._Abort`` passes through the right-hand side.

Spans stay in memory; ``per_layer`` turns them into the per-layer metrics
and ``dump`` writes them out at the end.
"""

from __future__ import annotations

import collections
import contextlib
import inspect
import json
import sys
import time

LAYERS = ("flows", "symplectic", "connection", "states", "monodromy",
          "twist", "ratfun", "serialize", "cli")
PACKAGE = "isomonodromy"


class Tracer:
    def __init__(self):
        self.spans = []        # [name, tag, start, end, parent]
        self.counts = collections.Counter()
        self.ivp = collections.defaultdict(lambda: [0, 0])  # nfev, accepted
        self._stack = []
        self._depth = collections.Counter()
        self._patches = []     # (owner, attribute, original)

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, fn, name, group=None, tag=None):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if group is not None:
                if depth[group]:
                    return fn(*args, **kwargs)
                depth[group] += 1
            idx = len(spans)
            spans.append([name, tag(args) if tag else None, clock(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][3] = clock()
                stack.pop()
                if group is not None:
                    depth[group] -= 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _ivp(self, fn, name):
        stats = self.ivp[name]

        def solve(*args, **kwargs):
            sol = fn(*args, **kwargs)
            stats[0] += sol.nfev
            stats[1] += len(sol.t) - 1
            return sol

        return self._spanned(solve, name)

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        idx = len(self.spans)
        self.spans.append([name, None, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][3] = time.perf_counter()
            self._stack.pop()

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_everywhere(self, original, wrapper):
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def _wrap_method(self, cls, attr, make):
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            self._patch(cls, attr, type(raw)(make(raw.__func__)))
        else:
            self._patch(cls, attr, make(raw))

    def install(self):
        from isomonodromy import cli, monodromy, ratfun, serialize, states
        from isomonodromy import connection, flows, symplectic, twist

        def rank(args):  # isomonodromic_rhs(direction, state, ...)
            direction, state = args[:2]
            return "irregular" if direction.irregular_rates else f"n{state.n}"

        for mod in (flows, symplectic, connection, monodromy, twist,
                    serialize):
            group = "serialize" if mod is serialize else None
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in _public_functions(mod):
                tag = rank if fn is flows.isomonodromic_rhs else None
                self._replace_everywhere(
                    fn, self._spanned(fn, f"{layer}.{attr}", group, tag))
        self._patch(flows, "solve_ivp",
                    self._ivp(flows.solve_ivp, "flows.solve_ivp"))
        self._patch(monodromy, "solve_ivp",
                    self._ivp(monodromy.solve_ivp, "monodromy.solve_ivp"))
        self._replace_everywhere(cli.main, self._spanned(cli.main, "cli.main"))

        for cls, attr, name in (
                (states.FlowState, "connection",
                 "states.FlowState.connection"),
                (states.FlowState, "from_connection",
                 "states.FlowState.from_connection"),
                (connection.Connection, "from_polar_parts",
                 "connection.Connection.from_polar_parts"),
                (connection.Connection, "from_ratmat",
                 "connection.Connection.from_ratmat"),
                (symplectic.PoleChartBlock, "__init__",
                 "symplectic.PoleChartBlock.init")):
            self._wrap_method(cls, attr,
                              lambda f, name=name: self._spanned(f, name))
        self._wrap_method(symplectic.PoleChartBlock, "omega",
                          lambda f: self._counted(
                              f, "symplectic.PoleChartBlock.omega"))
        self._wrap_method(states.PoleData, "__init__",
                          lambda f: self._counted(f, "states.PoleData.init"))
        # only the outermost RatMat entry point of a nest is timed
        for attr, raw in list(vars(ratfun.RatMat).items()):
            fn = getattr(raw, "__func__", raw)   # unwrap classmethods
            if inspect.isfunction(fn) and attr != "__repr__":
                self._wrap_method(
                    ratfun.RatMat, attr,
                    lambda f, attr=attr: self._spanned(
                        f, f"ratfun.RatMat.{attr}", "ratfun"))

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path):
        path.write_text(json.dumps({"spans": self.spans,
                                    "counts": dict(self.counts),
                                    "solve_ivp": dict(self.ivp)}))


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE
                                  or name.startswith(PACKAGE + "."))]


def _public_functions(mod):
    return [(attr, fn) for attr, fn in vars(mod).items()
            if inspect.isfunction(fn) and not attr.startswith("_")
            and fn.__module__ == mod.__name__]


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# DOP853: two evaluations to start (f(t0) and the initial-step probe), then
# twelve per attempted step.
DOP853_START, DOP853_STAGES = 2, 12

# (metric, unit) in the order they are reported; "count" metrics repeat
# exactly between runs on one seed.
PER_LAYER = [
    ("flows.isomonodromic_rhs.calls", "count"),
    ("flows.isomonodromic_rhs.ms", "ms"),
    ("flows.isomonodromic_rhs.ms.n2", "ms"),
    ("flows.isomonodromic_rhs.ms.n3", "ms"),
    ("flows.isomonodromic_rhs.ms.n4", "ms"),
    ("flows.isomonodromic_rhs.ms.irregular", "ms"),
    ("flows.direction_differential.ms", "ms"),
    ("flows.integrate_flow.s", "s"),
    ("flows.verify_isomonodromy.s", "s"),
    ("flows.solve_ivp.nfev", "count"),
    ("flows.solve_ivp.accept_ratio", "ratio"),
    ("flows.integrate_extended.s", "s"),
    ("flows.extended_autonomous_rhs.calls", "count"),
    ("flows.section_S.calls", "count"),
    ("symplectic.gram_matrix.ms", "ms"),
    ("symplectic.PoleChartBlock.omega.calls", "count"),
    ("symplectic.hamiltonian_vector_field.solve_ms", "ms"),
    ("symplectic.chart_blocks.ms", "ms"),
    ("symplectic.d_translation_hamiltonian.ms", "ms"),
    ("symplectic.numeric_differential.calls", "count"),
    ("symplectic.numeric_differential.s", "s"),
    ("connection.diagonalize_jet.calls", "count"),
    ("connection.diagonalize_jet.ms", "ms"),
    ("connection.polar_decompose.ms", "ms"),
    ("states.FlowState.connection.ms", "ms"),
    ("states.PoleData.init.calls", "count"),
    ("ratfun.busy_s", "s"),
    ("monodromy.transport.calls", "count"),
    ("monodromy.transport.ms", "ms"),
    ("monodromy.monodromy_rep.s", "s"),
    ("monodromy.solve_ivp.nfev", "count"),
    ("monodromy.solve_ivp.nfev_per_loop", "count"),
    ("monodromy.solve_ivp.accept_ratio", "ratio"),
    ("monodromy.eval_us", "us"),
    ("twist.push_connection.ms", "ms"),
    ("serialize.s", "s"),
] + [(f"layer.{layer}.self_s", "s") for layer in LAYERS + ("bench",)] + [
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
]
UNITS = dict(PER_LAYER)


def per_layer(tracer, pass_wall_s):
    """Per-layer metrics of one traced pass (all of the tracer's spans).

    Times are busy (inclusive) seconds per pass, or mean milliseconds per
    call; ``solve_ms`` and ``layer.*.self_s`` are self times, a span's
    duration minus its children's.  The layer self times add up to the
    traced pass's wall time, which the benchmark's own root span covers.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, tag, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = collections.Counter()
    total = collections.defaultdict(float)
    self_s = collections.defaultdict(float)
    layer_self = dict.fromkeys(LAYERS + ("bench",), 0.0)
    for (name, tag, start, end, parent), inner in zip(spans, child):
        for key in (name, f"{name}.{tag}") if tag else (name,):
            calls[key] += 1
            total[key] += end - start
        self_s[name] += end - start - inner
        layer_self[name.split(".", 1)[0]] += end - start - inner

    def ms(key):
        return 1e3 * total[key] / calls[key] if calls[key] else 0.0

    def ratio(ivp):
        nfev, accepted = tracer.ivp[ivp]
        calls_ = calls[ivp]
        attempts = (nfev - DOP853_START * calls_) / DOP853_STAGES
        return accepted / attempts if attempts > 0 else 0.0

    hvf = "symplectic.hamiltonian_vector_field"
    loops = calls["monodromy.transport"]
    m_nfev = tracer.ivp["monodromy.solve_ivp"][0]
    out = {
        "flows.isomonodromic_rhs.calls": calls["flows.isomonodromic_rhs"],
        "flows.isomonodromic_rhs.ms": ms("flows.isomonodromic_rhs"),
        "flows.direction_differential.ms": ms("flows.direction_differential"),
        "flows.integrate_flow.s": total["flows.integrate_flow"],
        "flows.verify_isomonodromy.s": total["flows.verify_isomonodromy"],
        "flows.solve_ivp.nfev": tracer.ivp["flows.solve_ivp"][0],
        "flows.solve_ivp.accept_ratio": ratio("flows.solve_ivp"),
        "flows.integrate_extended.s": total["flows.integrate_extended"],
        "flows.extended_autonomous_rhs.calls":
            calls["flows.extended_autonomous_rhs"],
        "flows.section_S.calls": calls["flows.section_S"],
        "symplectic.gram_matrix.ms": ms("symplectic.gram_matrix"),
        "symplectic.PoleChartBlock.omega.calls":
            tracer.counts["symplectic.PoleChartBlock.omega"],
        "symplectic.hamiltonian_vector_field.solve_ms":
            1e3 * self_s[hvf] / calls[hvf] if calls[hvf] else 0.0,
        "symplectic.chart_blocks.ms": ms("symplectic.chart_blocks"),
        "symplectic.d_translation_hamiltonian.ms":
            ms("symplectic.d_translation_hamiltonian"),
        "symplectic.numeric_differential.calls":
            calls["symplectic.numeric_differential"],
        "symplectic.numeric_differential.s":
            total["symplectic.numeric_differential"],
        "connection.diagonalize_jet.calls":
            calls["connection.diagonalize_jet"],
        "connection.diagonalize_jet.ms": ms("connection.diagonalize_jet"),
        "connection.polar_decompose.ms": ms("connection.polar_decompose"),
        "states.FlowState.connection.ms": ms("states.FlowState.connection"),
        "states.PoleData.init.calls": tracer.counts["states.PoleData.init"],
        "ratfun.busy_s": sum(v for k, v in total.items()
                             if k.startswith("ratfun.")),
        "monodromy.transport.calls": loops,
        "monodromy.transport.ms": ms("monodromy.transport"),
        "monodromy.monodromy_rep.s": total["monodromy.monodromy_rep"],
        "monodromy.solve_ivp.nfev": m_nfev,
        "monodromy.solve_ivp.nfev_per_loop": m_nfev / loops if loops else 0.0,
        "monodromy.solve_ivp.accept_ratio": ratio("monodromy.solve_ivp"),
        "monodromy.eval_us": (1e6 * total["monodromy.solve_ivp"] / m_nfev
                              if m_nfev else 0.0),
        "twist.push_connection.ms": ms("twist.push_connection"),
        "serialize.s": sum(v for k, v in total.items()
                           if k.startswith("serialize.")),
        "trace.wall_s": pass_wall_s,
    }
    for n in ("n2", "n3", "n4", "irregular"):
        out[f"flows.isomonodromic_rhs.ms.{n}"] = ms(
            f"flows.isomonodromic_rhs.{n}")
    for layer, value in layer_self.items():
        out[f"layer.{layer}.self_s"] = value
    return out
