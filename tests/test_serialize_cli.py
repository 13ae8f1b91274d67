import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import isomonodromy.serialize as ser
from isomonodromy.cli import main as cli_main
from isomonodromy.connection import BasePole, Connection
from isomonodromy.errors import IntegrationAbort, MalformedInputError
from isomonodromy.ratfun import INFINITY, RatMat
from isomonodromy.states import FlowState, PoleData
from isomonodromy.twist import MatrixDivisor, normal_form, push_connection

from conftest import random_fuchsian_matrices, random_matrix

NAN, INF = float("nan"), float("inf")   # json writes NaN and Infinity


class TestRoundTrips:
    def test_complex_and_infinity(self):
        assert ser.un_cx(ser.cx(1.25 - 0.5j)) == 1.25 - 0.5j
        assert ser.un_point("inf", "base_pole.point") == INFINITY
        assert ser.point(INFINITY) == "inf"
        # "inf" is read only where point writes it
        with pytest.raises(MalformedInputError, match="'inf' is not finite"):
            ser.un_cx("inf")

    def test_connection_bit_equal(self, rng):
        conn = Connection.from_polar_parts(
            [(0.0, [random_matrix(rng, 2), np.diag([0.5, -0.25])]),
             (2.0, [random_matrix(rng, 2)])],
            tail=[random_matrix(rng, 2)])
        d = json.loads(json.dumps(ser.connection(conn)))
        back = ser.un_connection(d)
        jet0 = conn.matrix.laurent(0.0, 1).coeffs
        jet1 = back.matrix.laurent(0.0, 1).coeffs
        assert np.array_equal(jet0, jet1)

    def test_connection_with_a_finite_base_pole(self):
        # the base point stays out of the poles; its residue (k/n) I is
        # implied by k
        R = np.array([[0.2, 0.1], [0.05, -0.2]])
        A = (RatMat.from_polar_part(0.0, [R])
             + RatMat.from_polar_part(1.5, [-R - np.eye(2) / 2])
             + RatMat.from_polar_part(-1.0, [np.eye(2) / 2]))
        conn = Connection.from_ratmat(A, base_pole=BasePole(1, -1.0))
        d = json.loads(json.dumps(ser.connection(conn)))
        assert d["base_pole"] == {"point": [-1.0, 0.0], "k": 1}
        assert [p["t"] for p in d["poles"]] == [[0.0, 0.0], [1.5, 0.0]]
        assert d["tail"] is None
        assert ser.un_connection(d).base_pole == conn.base_pole

    def test_pushed_connection_round_trips(self):
        # twist poles are listed and read back out of the divisor; the base
        # pole's residue (k/n) I is implied by k and restored on reading
        R = np.array([[0.2, 0.1], [0.05, -0.2]])
        A = (RatMat.from_polar_part(0.0, [R])
             + RatMat.from_polar_part(1.5, [-R - np.eye(2) / 2])
             + RatMat.from_polar_part(-1.0, [np.eye(2) / 2]))
        conn = push_connection(normal_form(0.4 + 0.6j, (0.0, 0.7)),
                               Connection.from_ratmat(
                                   A, base_pole=BasePole(1, -1.0)))
        back = ser.un_connection(json.loads(json.dumps(ser.connection(conn))))
        assert back.divisor == conn.divisor
        assert back.twist_points == conn.twist_points
        assert back.base_pole == conn.base_pole
        for z in (0.3 - 0.8j, 2.0 + 1.0j, -0.7 + 0.2j, 0.5 + 0.5j):
            assert np.allclose(back.eval(z), conn.eval(z), rtol=1e-12,
                               atol=0.0)

    def test_a_listed_pole_at_the_base_point_is_refused(self):
        d = _pair_connection()
        d["base_pole"] = {"point": d["poles"][0]["t"], "k": 1}
        with pytest.raises(MalformedInputError, match="implied by"):
            ser.un_connection(d)

    def test_twist_and_normal_form_shorthand(self):
        site = normal_form(0.5j, (0.0, 2.0))
        back = ser.un_twist_site(json.loads(json.dumps(ser.twist_site(site))))
        assert np.array_equal(site.germ, back.germ)
        short = ser.un_twist_site({"p": [0.0, 0.5], "params": [[0.0, 0.0],
                                                               [2.0, 0.0]]})
        assert np.array_equal(short.germ, site.germ)

    def test_flow_state(self, rng):
        lam_irr = np.array([[0.5, -0.4]], dtype=complex)
        state = FlowState(2, (
            PoleData(0.0, 2, np.eye(2), random_matrix(rng, 2), lam_irr),
            PoleData(2.0, 1, np.eye(2), random_matrix(rng, 2))),
            MatrixDivisor((normal_form(-1.5, (0.0, 1.0)),)))
        back = ser.un_flow_state(json.loads(json.dumps(ser.flow_state(state))))
        assert np.array_equal(state.chart_vector(), back.chart_vector())
        assert back.twist is not None


R_PAIR = np.array([[0.2, 0.1], [0.05, -0.2]], dtype=complex)
_SITE = {"sites": [{"p": [0.1, 0.2], "params": [[0.0, 0.0], [0.7, 0.0]]}]}


def _pair_connection(tail=None, base_pole=None):
    """Simple poles at 1.3 and -1.3 with residues R_PAIR and -R_PAIR, as a
    spec's connection."""
    return ser.connection(Connection.from_polar_parts(
        [(1.3, [R_PAIR]), (-1.3, [-R_PAIR])], n=2, tail=tail,
        base_pole=base_pole))


_BASE_POLE = BasePole(1)


def _twisted(params, p=(0.1, 0.2)):
    return {"state": {"connection": _pair_connection(),
                      "twists": {"sites": [{"p": list(p),
                                            "params": params}]}}}


def _set(spec, field, value):
    """``spec`` with the field at the dotted path ``field`` set."""
    *parents, key = field.split(".")
    target = spec
    for name in parents:
        target = target[int(name) if name.isdigit() else name]
    target[key] = value
    return spec


def _irregular(spec, length):
    """The flow spec on an order-2 pole with an irregular path."""
    state = FlowState(2, (
        PoleData(0.0, 2, np.eye(2), 0.3 * R_PAIR, np.array([[0.4, -0.45]])),
        PoleData(2.0, 1, np.eye(2), -0.3 * R_PAIR)))
    spec["state"] = ser.flow_state(state)
    spec["path"] = {"kind": "irregular", "pole": 0, "length": length,
                    "rate": [[[0.5, 0.0], [-0.5, 0.0]]]}
    return spec


def _pairing(count):
    return {"site": {"p": [0.0, 0.0], "params": [[0.0, 0.0], [1.5, 0.0]]},
            "a": [ser.matrix(np.eye(2))], "b": [ser.matrix(np.eye(2))],
            "checks": {"count": count}}


def _pair_with(field, value):
    return {"connection": _set(_pair_connection(), field, value)}


# case -> (command, text the message must hold, spec from the flow spec):
# specs that were answered (exit 0) or ended in a traceback or exit 3
_REFUSED = {
    "twist of rank 1": ("monodromy", "twists: the site",
                        lambda s: _twisted([[0.0, 0.0]])),
    "twist of rank 3": ("monodromy", "twists: the site",
                        lambda s: _twisted([[0.0, 0.0], [0.7, 0.0],
                                            [0.2, 0.0]])),
    "twist germ vanishing off its site": (
        "monodromy", "vanishes away from the site", lambda s: {"state": {
            "connection": _pair_connection(), "twists": {"sites": [{
                "p": [0.1, 0.2],
                "T": [ser.matrix(np.diag([-1e-7, 1.0])),
                      ser.matrix(np.diag([1.0, 0.0]))]}]}}}),
    "twist on a pole": ("monodromy", "poles and twist sites",
                        lambda s: _twisted([[0.0, 0.0], [0.7, 0.0]],
                                           p=(1.3, 0.0))),
    "state with a tail": ("monodromy", "tail:", lambda s: {"state": {
        "connection": _pair_connection(tail=[0.1 * np.eye(2)])}}),
    "state with twist points": ("flow", "twist_points:", lambda s: dict(
        s, state={"connection": dict(_pair_connection(),
                                     twist_points=[[0.1, 0.2]])})),
    "state with a base pole": ("flow", "base_pole:", lambda s: dict(
        s, state={"connection": _pair_connection(base_pole=_BASE_POLE)})),
    "top-level connection with a base pole": (
        "verify", "base_pole:", lambda s: {
            "connection": _pair_connection(base_pole=_BASE_POLE),
            "path": s["path"], "samples": 3}),
    "pole without coefficients": ("monodromy", "poles[0].coeffs:",
                                  lambda s: _pair_with("poles.0.coeffs", [])),
    "coefficient of the wrong shape": (
        "monodromy", "poles[1].coeffs:",
        lambda s: _pair_with("poles.1.coeffs", [ser.matrix(np.eye(3))])),
    "ragged coefficient": (
        "monodromy", "poles[0].coeffs:",
        lambda s: _pair_with("poles.0.coeffs", [[[[1.0, 0.0]],
                                                 [[1.0, 0.0], [0.0, 0.0]]]])),
    "tail of the wrong shape": (
        "monodromy", "tail:",
        lambda s: _pair_with("tail", [ser.matrix(np.eye(3))])),
    "tol true": ("flow", "tol:", lambda s: _set(s, "tol", True)),
    "tol.flow string": ("flow", "tol.flow:",
                        lambda s: _set(s, "tol", {"flow": "1e-3"})),
    "tol.drift true": ("flow", "tol.drift:",
                       lambda s: _set(s, "tol", {"drift": True})),
    "displacement string": ("flow", "path.displacement:", lambda s: _set(
        s, "path", {"kind": "line", "pole": 1,
                    "displacement": ["0.3", 0.2]})),
    "displacement bool": ("flow", "path.displacement:", lambda s: _set(
        s, "path", {"kind": "line", "pole": 1,
                    "displacement": [0.3, True]})),
    "length bool": ("flow", "path.length:", lambda s: _irregular(s, True)),
    "length string": ("flow", "path.length:",
                      lambda s: _irregular(s, "0.5")),
    "negative count": ("pairing", "checks.count:", lambda s: _pairing(-2)),
    "irr at order 1": ("flow", "poles[0].irr:", lambda s: _set(
        s, "state.poles.0.irr", [[[0.4, 0.0], [-0.45, 0.0]]])),
}


@pytest.fixture
def flow_spec(tmp_path, rng):
    mats = [0.4 * M for M in random_fuchsian_matrices(rng, 2, 4)]
    state = FlowState(2, tuple(
        PoleData(t, 1, np.eye(2), M)
        for t, M in zip([-2.1, -0.35, 1.15, 2.6], mats)))
    spec = {
        "state": ser.flow_state(state),
        "path": {"kind": "semicircle", "pole": 1,
                 "diameter": [2 / np.pi, 0.0]},
        "samples": 3,
        "tol": {"flow": 1e-10, "transport": 1e-10, "drift": 1e-6},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


class TestCli:
    def test_flow_writes_artifacts_and_passes(self, flow_spec, tmp_path):
        out = tmp_path / "out"
        rc = cli_main(["flow", "--input", str(flow_spec), "--out", str(out)])
        assert rc == 0
        assert (out / "trajectory.csv").exists()
        drift = json.loads((out / "drift.json").read_text())
        assert drift["max_drift"] < 1e-6
        assert len(drift["conjugacy_residual"]) == len(drift["samples"])
        assert max(drift["conjugacy_residual"]) < 1e-12

    def test_flow_deterministic_bytes(self, flow_spec, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli_main(["flow", "--input", str(flow_spec),
                         "--out", str(out1)]) == 0
        assert cli_main(["flow", "--input", str(flow_spec),
                         "--out", str(out2)]) == 0
        for name in ("trajectory.csv", "drift.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_verify_commuting_fixture(self, tmp_path):
        mats = [np.diag([0.4, -0.3]), np.diag([-0.2, 0.5]),
                np.diag([-0.2, -0.2])]
        state = FlowState(2, tuple(
            PoleData(t, 1, np.eye(2), M.astype(complex))
            for t, M in zip([0.0, 1.6, -1.4], mats)))
        spec = {"state": ser.flow_state(state),
                "path": {"kind": "line", "pole": 0,
                         "displacement": [0.4, 0.2]},
                "samples": 3, "tol": {"drift": 1e-9}}
        sp = tmp_path / "spec.json"
        sp.write_text(json.dumps(spec))
        out = tmp_path / "out"
        rc = cli_main(["verify", "--input", str(sp), "--out", str(out)])
        assert rc == 0
        drift = json.loads((out / "drift.json").read_text())
        assert drift["max_drift"] < 1e-9
        assert not (out / "trajectory.csv").exists()

    def test_connection_poles_keep_the_listed_order(self, tmp_path):
        # listed 1.3 first; the divisor sorts -1.3 first, and pole 0 is
        # still the pole listed first
        conn = _pair_connection()
        conn["poles"].reverse()
        assert [p["t"] for p in conn["poles"]] == [[1.3, 0.0], [-1.3, 0.0]]
        sp = tmp_path / "spec.json"
        sp.write_text(json.dumps({
            "connection": conn, "samples": 3,
            "path": {"kind": "line", "pole": 0, "displacement": [0.2, 0.1]}}))
        out = tmp_path / "out"
        assert cli_main(["flow", "--input", str(sp), "--out", str(out)]) == 0
        rows = (out / "trajectory.csv").read_text().splitlines()
        header = rows[0].split(",")
        at = [header.index(c) for c in ("t0.re", "t0.im", "t1.re", "t1.im")]
        start, end = ([float(row.split(",")[k]) for k in at]
                      for row in (rows[1], rows[-1]))
        assert start == [1.3, 0.0, -1.3, 0.0]
        assert np.allclose(end, [1.5, 0.1, -1.3, 0.0], rtol=0, atol=1e-12)

    def test_monodromy_closed_form(self, tmp_path):
        r = [0.3, -0.7]
        conn = Connection.from_polar_parts([(0.0, [np.diag(r)])])
        spec = {"connection": ser.connection(conn), "base_point": [0.0, -2.0]}
        sp = tmp_path / "spec.json"
        sp.write_text(json.dumps(spec))
        out = tmp_path / "out"
        rc = cli_main(["monodromy", "--input", str(sp), "--out", str(out)])
        assert rc == 0
        data = json.loads((out / "monodromy.json").read_text())
        M = ser.un_matrix(data["matrices"][0])
        want = np.diag(np.exp(2j * np.pi * np.array(r)))
        assert np.max(np.abs(M - want)) < 1e-10

    def test_monodromy_roundtrip_parse(self, tmp_path):
        r = [0.3, -0.7]
        conn = Connection.from_polar_parts([(0.0, [np.diag(r)])])
        spec = {"connection": ser.connection(conn), "base_point": [0.0, -2.0]}
        sp = tmp_path / "spec.json"
        sp.write_text(json.dumps(spec))
        out = tmp_path / "out"
        cli_main(["monodromy", "--input", str(sp), "--out", str(out)])
        data = json.loads((out / "monodromy.json").read_text())
        # every emitted complex re-parses to equal in-memory values
        M = ser.un_matrix(data["matrices"][0])
        data2 = json.loads((out / "monodromy.json").read_text())
        assert np.array_equal(M, ser.un_matrix(data2["matrices"][0]))

    def test_monodromy_deterministic_bytes(self, tmp_path, rng):
        fuchsian = FlowState(3, tuple(
            PoleData(t, 1, np.eye(3), M) for t, M in
            zip([-2.1, -0.35, 1.15, 2.6], random_fuchsian_matrices(rng, 3, 4))))
        lam0, A1 = 0.25 * random_matrix(rng, 2), 0.25 * random_matrix(rng, 2)
        order2 = FlowState(2, (
            PoleData(0.0, 2, np.eye(2), lam0, [np.array([-0.45, 0.4])]),
            PoleData(2.3, 1, np.eye(2), A1),
            PoleData(-2.0, 1, np.eye(2), -(lam0 + A1))))
        pair = Connection.from_polar_parts(
            [(t, [0.4 * M]) for t, M in
             zip([-1.3, 1.3], random_fuchsian_matrices(rng, 2, 2))], n=2)
        twisted = {"connection": ser.connection(pair),
                   "twists": {"sites": [{"p": ser.cx(0.2 - 0.1j),
                                         "params": [ser.cx(0.0),
                                                    ser.cx(0.8)]}]}}
        for k, state in enumerate((ser.flow_state(fuchsian),
                                   ser.flow_state(order2), twisted)):
            sp = tmp_path / f"spec{k}.json"
            sp.write_text(json.dumps({"state": state}))
            outs = [tmp_path / f"o{k}{run}" for run in range(2)]
            for out in outs:
                assert cli_main(["monodromy", "--input", str(sp),
                                 "--out", str(out)]) == 0
            first, second = ((out / "monodromy.json").read_bytes()
                             for out in outs)
            assert first == second
            assert len(json.loads(first)["matrices"]) == (4 if k == 0 else 3)

    @pytest.mark.parametrize("tail, defect", [
        ([[[[0.1, 0], [0, 0]], [[0, 0], [-0.1, 0]]]], None), (None, 0.0)])
    @pytest.mark.parametrize("base_point", [None, [0.5, 0.2]])
    def test_monodromy_without_finite_poles(self, tmp_path, capsys, tail,
                                            defect, base_point):
        spec = {"connection": {"n": 2, "poles": [], "tail": tail}}
        if base_point is not None:
            spec["base_point"] = base_point
        sp = tmp_path / "spec.json"
        sp.write_text(json.dumps(spec))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli_main(["monodromy", "--input", str(sp), "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        data = json.loads((out / "monodromy.json").read_text())
        assert data["poles"] == data["loops"] == data["matrices"] == []
        assert data["invariants"] == []
        assert data["product_defect"] == defect
        assert data["base"] == (base_point or [0.0, 0.0])

    def test_hamiltonian_command(self, tmp_path, rng):
        mats = random_fuchsian_matrices(rng, 2, 3)
        state = FlowState(2, tuple(
            PoleData(t, 1, np.eye(2), M)
            for t, M in zip([0.0, 1.5, -1.2], mats)))
        spec = {"state": ser.flow_state(state), "field": True}
        sp = tmp_path / "spec.json"
        sp.write_text(json.dumps(spec))
        out = tmp_path / "out"
        assert cli_main(["hamiltonian", "--input", str(sp),
                         "--out", str(out)]) == 0
        data = json.loads((out / "hamiltonian.json").read_text())
        ts = [0.0, 1.5, -1.2]
        want = 2 * sum(np.trace(mats[0] @ mats[j]) / (ts[0] - ts[j])
                       for j in (1, 2))
        assert abs(ser.un_cx(data["translations"][0]) - want) < 1e-10
        assert len(data["field"]) == state.chart_dim()

    def test_pairing_command_with_checks(self, tmp_path):
        spec = {
            "site": {"p": [0.0, 0.0], "params": [[0.0, 0.0], [1.5, 0.0]]},
            "a": [ser.matrix(np.eye(2)), ser.matrix(np.zeros((2, 2)))],
            "b": [ser.matrix(np.array([[0.5, 0.0], [1.0, -0.5]]))],
            "frame": "U1",
            "checks": {"count": 25},
        }
        sp = tmp_path / "spec.json"
        sp.write_text(json.dumps(spec))
        out = tmp_path / "out"
        rc = cli_main(["pairing", "--input", str(sp), "--out", str(out),
                       "--seed", "3"])
        assert rc == 0
        data = json.loads((out / "pairing.json").read_text())
        assert data["max_deviation"] < 1e-10

    def test_pairing_deviation_over_tolerance_exits_2(self, tmp_path,
                                                       capsys):
        # round-off deviations are far above a pairing tolerance of 1e-300
        spec = _pairing(5)
        spec["tol"] = {"pairing": 1e-300}
        sp = tmp_path / "spec.json"
        sp.write_text(json.dumps(spec))
        out = tmp_path / "out"
        assert cli_main(["pairing", "--input", str(sp), "--out", str(out),
                         "--seed", "3"]) == 2
        assert capsys.readouterr().out.startswith("invariance deviation ")
        assert json.loads((out / "pairing.json").read_text())[
            "max_deviation"] > 0

    def test_pole_collision_exit_code(self, tmp_path, rng, capsys):
        state = FlowState(2, tuple(
            PoleData(t, 1, np.eye(2), M)
            for t, M in zip([0.0, 1.0], random_fuchsian_matrices(rng, 2, 2))))
        spec = {"state": ser.flow_state(state),
                "path": {"kind": "line", "pole": 0,
                         "displacement": [1.0, 0.0]},
                "samples": 5}
        sp = tmp_path / "spec.json"
        sp.write_text(json.dumps(spec))
        out = tmp_path / "out"
        assert cli_main(["flow", "--input", str(sp), "--out", str(out)]) == 3
        line = capsys.readouterr().out.strip().splitlines()[-1]
        prefix = "aborted: pole_collision at s="
        assert line.startswith(prefix)
        at = float(line[len(prefix):])
        assert abs(at - 0.99) < 1e-9
        drift = json.loads((out / "drift.json").read_text())
        assert drift["notes"] == [f"trajectory aborted: pole_collision at s={at}"]
        assert drift["samples"] == [0.0, 0.25, 0.5, 0.75]

    def test_degenerate_chart_exit_code(self, flow_spec, tmp_path,
                                        monkeypatch, capsys):
        # a threshold every chart is under: the event fires at s = 0, and
        # the partial trajectory is written
        import isomonodromy.flows as flows
        monkeypatch.setattr(flows, "TAU_RANK", 1.0)
        out = tmp_path / "out"
        assert cli_main(["flow", "--input", str(flow_spec),
                         "--out", str(out)]) == 3
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line == "aborted: degenerate_chart at s=0.0"
        drift = json.loads((out / "drift.json").read_text())
        assert drift["notes"] == [
            "trajectory aborted: degenerate_chart at s=0.0"]
        assert drift["samples"] == [0.0]
        assert len((out / "trajectory.csv").read_text().splitlines()) == 2

    def test_exactly_singular_stage_exit_code(self, flow_spec, tmp_path,
                                              monkeypatch, capsys):
        # every stage solve meets the exactly singular block of an order-3
        # pole with a clustered leading type
        import isomonodromy.flows as flows
        R = np.array([[0.1, 0.2], [0.3, -0.1]], dtype=complex)
        good = FlowState(2, (
            PoleData(0.0, 3, np.eye(2), R, [[0.0, 0.0], [-0.5, 0.5]]),
            PoleData(2.0, 1, np.eye(2), -R)))
        y = good.flat()
        y[-2] = y[-1]
        bad = good.with_flat(y)
        real = flows.solve_chart
        monkeypatch.setattr(flows, "solve_chart", lambda dH, st: real(
            np.ones(bad.chart_dim(), dtype=complex), bad))
        assert cli_main(["flow", "--input", str(flow_spec),
                         "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            "numeric abort: chart Gram matrix is singular: a block is "
            "exactly singular\n")

    def test_integration_abort_exit_code(self, flow_spec, tmp_path,
                                         monkeypatch, capsys):
        import isomonodromy.cli as cli

        def stiff(spec, args, verify_only=False):
            raise IntegrationAbort("flow integration failed: step too small")

        monkeypatch.setitem(cli.COMMANDS, "flow", stiff)
        assert cli_main(["flow", "--input", str(flow_spec),
                         "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            "numeric abort (stiffness): flow integration failed: step too "
            "small\n")

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli_main(["flow", "--input", str(bad), "--out",
                         str(tmp_path)]) == 4

    def test_pinned_pole_conflict(self, flow_spec, tmp_path):
        rc = cli_main(["flow", "--input", str(flow_spec),
                       "--out", str(tmp_path / "o"), "--pin", "1"])
        assert rc == 4

    @pytest.mark.parametrize("pole", [7, -1])
    def test_path_pole_out_of_range(self, flow_spec, tmp_path, pole, capsys):
        spec = json.loads(flow_spec.read_text())
        spec["path"]["pole"] = pole
        flow_spec.write_text(json.dumps(spec))
        rc = cli_main(["flow", "--input", str(flow_spec),
                       "--out", str(tmp_path / "o")])
        assert rc == 4
        assert "path.pole" in capsys.readouterr().err

    @pytest.mark.parametrize("direction", [
        {"kind": "translation", "pole": 7},
        {"kind": "irregular", "pole": -1, "beta": [[[1.0, 0.0]] * 2]}])
    def test_direction_pole_out_of_range(self, tmp_path, rng, direction,
                                         capsys):
        state = FlowState(2, tuple(
            PoleData(t, 1, np.eye(2), M)
            for t, M in zip([0.0, 1.5, -1.2],
                            random_fuchsian_matrices(rng, 2, 3))))
        spec = {"state": ser.flow_state(state), "direction": direction,
                "field": True}
        sp = tmp_path / "spec.json"
        sp.write_text(json.dumps(spec))
        assert cli_main(["hamiltonian", "--input", str(sp),
                         "--out", str(tmp_path / "o")]) == 4
        assert "direction.pole" in capsys.readouterr().err

    @pytest.mark.parametrize("command, order, field", [
        ("hamiltonian", 1, "direction"), ("flow", 1, "path"),
        ("flow", 3, "path")])
    def test_irregular_needs_a_higher_order_pole(
            self, tmp_path, rng, monkeypatch, capsys, command, order, field):
        # a direction needs order >= 2, a path order 2; checked before any work
        monkeypatch.setattr("isomonodromy.cli.integrate_flow", _no_work)
        monkeypatch.setattr("isomonodromy.cli.translation_hamiltonian_values",
                            _no_work)
        lam_irr = np.array([[0.4, -0.45], [0.25, -0.3]])[:order - 1]
        res = 0.3 * random_matrix(rng, 2)
        state = FlowState(2, (
            PoleData(0.0, order, np.eye(2), res, lam_irr),
            PoleData(2.0, 1, np.eye(2), -res)))
        rows = [[0.5, -0.5]] * max(order - 1, 1)
        spec = {"state": ser.flow_state(state)}
        if field == "path":
            spec["path"] = {"kind": "irregular", "pole": 0, "rate": rows}
        else:
            spec["direction"] = {"kind": "irregular", "pole": 0,
                                 "beta": rows}
        sp = tmp_path / "spec.json"
        sp.write_text(json.dumps(spec))
        assert cli_main([command, "--input", str(sp),
                         "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {field}.pole: pole 0 has "
                              f"order {order}; ")
        assert not (tmp_path / "o").exists()

    def test_field_direction_refused_before_any_work(
            self, tmp_path, rng, monkeypatch, capsys):
        # an irregular direction with "field" set is refused before the
        # Hamiltonians are computed
        monkeypatch.setattr("isomonodromy.cli.translation_hamiltonian_values",
                            _no_work)
        monkeypatch.setattr("isomonodromy.cli.hamiltonian_beta_B", _no_work)
        res = 0.3 * random_matrix(rng, 2)
        state = FlowState(2, (
            PoleData(0.0, 2, np.eye(2), res,
                     np.array([[0.4, -0.45]])),
            PoleData(2.0, 1, np.eye(2), -res)))
        spec = {"state": ser.flow_state(state), "field": True,
                "direction": {"kind": "irregular", "pole": 0,
                              "beta": [[[0.5, 0.0], [-0.5, 0.0]]]}}
        sp = tmp_path / "spec.json"
        sp.write_text(json.dumps(spec))
        assert cli_main(["hamiltonian", "--input", str(sp),
                         "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err == \
            "parse error: field output is supported for translations\n"
        assert not (tmp_path / "o").exists()

    def test_parser_keeps_no_arguments_between_calls(self, tmp_path,
                                                     monkeypatch):
        # the parser is built once per process; each call parses afresh
        import isomonodromy.cli as cli

        seen = []
        for name in ("flow", "monodromy"):
            monkeypatch.setitem(cli.COMMANDS, name,
                                lambda spec, args: seen.append(args) or 0)
        sp = tmp_path / "spec.json"
        sp.write_text("{}")
        assert cli_main(["flow", "--input", str(sp), "--out", "a",
                         "--tol", "1e-9", "--pin", "0", "2"]) == 0
        assert cli_main(["monodromy", "--input", str(sp)]) == 0
        first, second = (vars(a) for a in seen)
        assert first == {"command": "flow", "input": str(sp), "out": "a",
                         "tol": 1e-9, "pin": [0, 2]}
        assert second == {"command": "monodromy", "input": str(sp),
                          "out": ".", "tol": None}

    def test_one_table_of_subcommands(self):
        # the parser is built from cli.COMMANDS, in its order, and the
        # README's command-line block shows the same subcommands
        import argparse

        import isomonodromy.cli as cli

        sub = next(a for a in cli._parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert list(cli.COMMANDS) == list(sub.choices)
        readme = (Path(__file__).resolve().parents[1] / "README.md"
                  ).read_text().split("## Command line", 1)[1]
        block = readme.split("```", 2)[1]
        shown = [line.split()[1] for line in block.splitlines()
                 if line.startswith("isomonodromy ")]
        assert sorted(shown) == sorted(cli.COMMANDS)

    @pytest.mark.parametrize("command", ["flow", "verify", "monodromy"])
    def test_base_point_on_a_pole(self, flow_spec, tmp_path, monkeypatch,
                                  capsys, command):
        # checked against the initial poles before any integration
        monkeypatch.setattr("isomonodromy.cli.integrate_flow", _no_work)
        monkeypatch.setattr("isomonodromy.cli.monodromy_rep", _no_work)
        spec = json.loads(flow_spec.read_text())
        spec["base_point"] = [-0.35, 1e-7]
        flow_spec.write_text(json.dumps(spec))
        assert cli_main([command, "--input", str(flow_spec),
                         "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("parse error: base_point: base point ")
        assert "too close to pole (-0.35+0j)" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, field, value", [
        ("monodromy", "base_point", [NAN, 0]),
        ("monodromy", "base_point", [INF, 0]),
        ("monodromy", "base_point", "inf"),
        ("flow", "base_point", [NAN, 0]),
        ("monodromy", "poles[0].res", [NAN, 0]),
        ("flow", "poles[1].t", [NAN, 0]),
        ("flow", "path.displacement", [NAN, 0]),
        ("flow", "path.displacement", [INF, 0]),
        ("flow", "path.diameter", [0, NAN]),
        ("flow", "path.diameter", [INF, 0]),
        ("flow", "path.rate", [NAN, 0]),
        ("flow", "path.length", NAN)])
    def test_non_finite_number_refused_before_any_work(
            self, flow_spec, tmp_path, rng, monkeypatch, capsys, command,
            field, value):
        # each is a parse error naming its field; none reaches transport
        # or the flow, where a NaN once hung the run
        monkeypatch.setattr("isomonodromy.cli.integrate_flow", _no_work)
        monkeypatch.setattr("isomonodromy.cli.monodromy_rep", _no_work)
        spec = json.loads(flow_spec.read_text())
        if field in ("path.rate", "path.length"):
            res = 0.3 * random_matrix(rng, 2)
            state = FlowState(2, (
                PoleData(0.0, 2, np.eye(2), res, np.array([[0.4, -0.45]])),
                PoleData(2.0, 1, np.eye(2), -res)))
            spec["state"] = ser.flow_state(state)
            spec["path"] = {"kind": "irregular", "pole": 0,
                            "rate": [[[0.5, 0.0], [-0.5, 0.0]]]}
        if field == "path.displacement":
            spec["path"] = {"kind": "line", "pole": 1, "displacement": value}
        elif field == "path.diameter":
            spec["path"]["diameter"] = value
        elif field == "path.rate":
            spec["path"]["rate"][0][1] = value
        elif field == "path.length":
            spec["path"]["length"] = value
        elif field == "poles[0].res":
            spec["state"]["poles"][0]["res"][1][0] = value
        elif field == "poles[1].t":
            spec["state"]["poles"][1]["t"] = value
        else:
            spec[field] = value
        flow_spec.write_text(json.dumps(spec))
        assert cli_main([command, "--input", str(flow_spec),
                         "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {field}: ")
        assert err.rstrip().endswith("is not finite")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, field, make", [
        pytest.param(command, field, make, id=f"{command}-{case}")
        for case, field, commands, make in [
            ("state", "poles[0].t", ("hamiltonian", "monodromy", "flow"),
             lambda s: _set(s, "state.poles.0.t", "inf")),
            ("connection", "poles[0].t", ("monodromy",),
             lambda s: _pair_with("poles.0.t", "inf")),
            ("twisted-state", "site.p", ("hamiltonian", "monodromy", "flow"),
             lambda s: _set(dict(s, **_twisted([[0.0, 0.0], [0.7, 0.0]])),
                            "state.twists.sites.0.p", "inf")),
            ("site", "site.p", ("pairing",),
             lambda s: _set(_pairing(2), "site.p", "inf")),
            ("twist-points", "twist_points", ("monodromy",),
             lambda s: _pair_with("twist_points", ["inf"])),
            ("displacement", "path.displacement", ("flow",),
             lambda s: _set(s, "path", {"kind": "line", "pole": 1,
                                        "displacement": "inf"})),
            ("diameter", "path.diameter", ("flow",),
             lambda s: _set(s, "path.diameter", "inf"))]
        for command in commands])
    def test_infinity_refused_where_a_finite_number_is_needed(
            self, flow_spec, tmp_path, monkeypatch, capsys, command, field,
            make):
        # only base_pole.point may be "inf"; each of these once ran (exit 0
        # with NaN output, or exit 3) or failed naming no field
        for name in ("integrate_flow", "monodromy_rep",
                     "translation_hamiltonian_values", "residue_pairing"):
            monkeypatch.setattr(f"isomonodromy.cli.{name}", _no_work)
        flow_spec.write_text(json.dumps(make(json.loads(
            flow_spec.read_text()))))
        assert cli_main([command, "--input", str(flow_spec),
                         "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err == \
            f"parse error: {field}: 'inf' is not finite\n"
        assert not (tmp_path / "o").exists()

    def test_base_point_on_a_twist_point(self, tmp_path, rng, monkeypatch,
                                         capsys):
        monkeypatch.setattr("isomonodromy.cli.integrate_flow", _no_work)
        res = 0.3 * random_matrix(rng, 2)
        state = FlowState(2, (PoleData(0.0, 1, np.eye(2), res),
                              PoleData(2.0, 1, np.eye(2), -res)),
                          MatrixDivisor((normal_form(-1.5, (0.0, 1.0)),)))
        spec = {"state": ser.flow_state(state), "base_point": [-1.5, 0.0]}
        sp = tmp_path / "spec.json"
        sp.write_text(json.dumps(spec))
        assert cli_main(["flow", "--input", str(sp),
                         "--out", str(tmp_path / "o")]) == 4
        assert "too close to pole (-1.5+0j)" in capsys.readouterr().err

    def test_flow_needs_two_samples(self, flow_spec, tmp_path, capsys):
        spec = json.loads(flow_spec.read_text())
        spec["samples"] = 1
        flow_spec.write_text(json.dumps(spec))
        out = tmp_path / "o"
        assert cli_main(["flow", "--input", str(flow_spec),
                         "--out", str(out)]) == 4
        assert "samples" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

    @pytest.mark.parametrize("tol, override, where", [
        (-1e-10, None, "tol"), ({"flow": float("nan")}, None, "tol.flow"),
        (float("inf"), None, "tol"), (None, "-1", "--tol")])
    def test_tolerance_must_be_finite_and_positive(
            self, flow_spec, tmp_path, tol, override, where, capsys):
        spec = json.loads(flow_spec.read_text())
        if tol is not None:
            spec["tol"] = tol    # json writes NaN and Infinity, and reads them
        flow_spec.write_text(json.dumps(spec))
        argv = ["flow", "--input", str(flow_spec), "--out", str(tmp_path / "o")]
        if override is not None:
            argv.append(f"--tol={override}")
        assert cli_main(argv) == 4
        assert capsys.readouterr().err.startswith(f"parse error: {where}: ")
        assert not (tmp_path / "o").exists()

    def test_pole_shape_mismatch_is_a_parse_error(self, flow_spec, tmp_path,
                                                  capsys):
        # a 3x3 residue beside a 2x2 frame
        spec = json.loads(flow_spec.read_text())
        spec["state"]["poles"][0]["res"] = ser.matrix(np.eye(3))
        flow_spec.write_text(json.dumps(spec))
        assert cli_main(["flow", "--input", str(flow_spec),
                         "--out", str(tmp_path / "o")]) == 4
        assert "lam_res" in capsys.readouterr().err

    def test_singular_frame_is_a_parse_error(self, flow_spec, tmp_path,
                                             capsys):
        spec = json.loads(flow_spec.read_text())
        spec["state"]["poles"][1]["h"] = ser.matrix(np.zeros((2, 2)))
        flow_spec.write_text(json.dumps(spec))
        assert cli_main(["flow", "--input", str(flow_spec),
                         "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("parse error: h: ")
        assert "pole t = (-0.35+0j) is singular" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, option, value", [
        pytest.param("flow", "--pin", "7", id="7"),
        pytest.param("flow", "--pin", "-1", id="-1"),
        # a subcommand refuses an option it does not read
        pytest.param("monodromy", "--pin", "0", id="monodromy-pin"),
        pytest.param("flow", "--seed", "1", id="flow-seed")])
    def test_pin_out_of_range(self, flow_spec, tmp_path, command, option,
                              value, capsys):
        try:
            rc = cli_main([command, "--input", str(flow_spec),
                           "--out", str(tmp_path / "o"), option, value])
        except SystemExit as exc:    # argparse's refusals exit from parsing
            rc = exc.code
        assert rc == 4
        assert option in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("beta", [[[[1.0, 0.0]]], [[[1.0, 0.0]] * 2] * 3])
    def test_hamiltonian_malformed_beta(self, tmp_path, rng, beta):
        # order-2 rank-2 pole: beta must have shape (1, 2)
        state = FlowState(2, (
            PoleData(0.0, 2, np.eye(2), 0.3 * random_matrix(rng, 2),
                     [[-0.6, 0.5]]),
            PoleData(2.0, 1, np.eye(2), 0.3 * random_matrix(rng, 2))))
        spec = {"state": ser.flow_state(state),
                "direction": {"kind": "irregular", "pole": 0, "beta": beta}}
        sp = tmp_path / "spec.json"
        sp.write_text(json.dumps(spec))
        assert cli_main(["hamiltonian", "--input", str(sp),
                         "--out", str(tmp_path / "o")]) == 4

    @pytest.mark.parametrize("command, field", [
        ("flow", None), ("flow", "path"), ("flow", "tol"),
        ("hamiltonian", "direction"), ("pairing", "checks")])
    def test_non_object_field_is_a_parse_error(self, flow_spec, tmp_path,
                                               command, field, capsys):
        # a JSON array or string where the spec or a field must be an object
        spec = json.loads(flow_spec.read_text())
        if command == "pairing":
            spec = {"site": {"p": [0.0, 0.0],
                             "params": [[0.0, 0.0], [1.5, 0.0]]},
                    "a": [ser.matrix(np.eye(2))],
                    "b": [ser.matrix(np.eye(2))]}
        if field is None:
            spec = [spec]
        else:
            spec[field] = [1] if field == "path" else "x"
        flow_spec.write_text(json.dumps(spec))
        rc = cli_main([command, "--input", str(flow_spec),
                       "--out", str(tmp_path / "o")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("parse error: ")
        assert f"{field or 'spec'} must be a JSON object" in err

    @pytest.mark.parametrize("value", [[], "x"])
    @pytest.mark.parametrize("command, field", [
        (command, field) for command in ("flow", "verify", "monodromy",
                                         "hamiltonian")
        for field in ("state", "connection")])
    def test_non_object_state_or_connection_is_a_parse_error(
            self, tmp_path, command, field, value, capsys):
        # a non-object state once died in the state reader with a raw
        # AttributeError, and a connection's message did not name it
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({field: value}))
        rc = cli_main([command, "--input", str(spec),
                       "--out", str(tmp_path / "o")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("parse error: ")
        assert f"{field} must be a JSON object" in err

    @pytest.mark.parametrize("argv, code", [
        (["flow"], 4), (["frobnicate", "--input", "x"], 4),
        (["flow", "--input", "x", "--bogus"], 4), (["--help"], 0),
        (["flow", "--help"], 0)])
    def test_argument_errors_are_parse_errors(self, argv, code, capsys):
        # argparse's own exit code 2 would read as an invariant violation
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == code
        assert ("error: " in capsys.readouterr().err) == (code == 4)

    @pytest.mark.parametrize("command, field, value", [
        ("flow", "samples", 2.5), ("flow", "samples", "3"),
        ("flow", "samples", True), ("flow", "path.pole", 1.5),
        ("flow", "path.upper", "false"), ("flow", "path.upper", 0),
        ("flow", "n", 2.0), ("flow", "poles[0].l", "1"),
        ("monodromy", "n", 2.0), ("monodromy", "base_pole.k", 0.5),
        ("hamiltonian", "direction.pole", 0.5), ("hamiltonian", "field", 1),
        ("pairing", "checks.count", 2.5)])
    def test_integer_and_boolean_fields_are_checked(
            self, flow_spec, tmp_path, monkeypatch, capsys, command, field,
            value):
        # int() and bool() would read 2.5 as 2 and "false" as true
        for name in ("integrate_flow", "monodromy_rep",
                     "translation_hamiltonian_values", "residue_pairing"):
            monkeypatch.setattr(f"isomonodromy.cli.{name}", _no_work)
        spec = json.loads(flow_spec.read_text())
        if command == "monodromy":
            res = np.diag([0.3, -0.3])
            conn = ser.connection(Connection.from_polar_parts(
                [(0.0, [res]), (1.5, [-res])]))
            conn["base_pole"] = {"point": "inf", "k": 0}
            spec = {"connection": conn}
            target = spec["connection"]
        elif command == "hamiltonian":
            spec["direction"] = {"kind": "translation", "pole": 0}
            spec["field"] = True
        elif command == "pairing":
            spec = {"site": {"p": [0.0, 0.0],
                             "params": [[0.0, 0.0], [1.5, 0.0]]},
                    "a": [ser.matrix(np.eye(2))],
                    "b": [ser.matrix(np.eye(2))], "checks": {"count": 2}}
        if command != "monodromy":
            target = spec["state"] if field in ("n", "poles[0].l") else spec
        _set(target, field.replace("poles[0]", "poles.0"), value)
        flow_spec.write_text(json.dumps(spec))
        assert cli_main([command, "--input", str(flow_spec),
                         "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err.startswith(
            f"parse error: {field}: expected ")
        assert not (tmp_path / "o").exists()

    def test_clustered_leading_type_is_a_numeric_abort(self, tmp_path,
                                                       capsys):
        # the order-2 pole's leading types meet at s = 1
        res = np.diag([0.3, -0.2]).astype(complex)
        state = FlowState(2, (
            PoleData(0.0, 2, np.eye(2), res, [[0.4, -0.45]]),
            PoleData(2.0, 1, np.eye(2), -res)))
        spec = {"state": ser.flow_state(state), "samples": 3,
                "path": {"kind": "irregular", "pole": 0,
                         "rate": [[[-0.425, 0.0], [0.425, 0.0]]]}}
        sp = tmp_path / "spec.json"
        sp.write_text(json.dumps(spec))
        assert cli_main(["flow", "--input", str(sp),
                         "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.startswith(
            "numeric abort: leading eigenvalues ")

    @pytest.mark.parametrize("command", ["flow", "verify"])
    def test_top_level_connection_is_read_as_a_state(self, tmp_path,
                                                     command):
        # {"connection": C} and {"state": {"connection": C}} are one input
        outs = []
        for k, spec in enumerate(({"connection": _pair_connection()},
                                  {"state": {"connection":
                                             _pair_connection()}})):
            spec.update(path={"kind": "line", "pole": 0,
                              "displacement": [0.2, 0.1]}, samples=3)
            sp = tmp_path / f"spec{k}.json"
            sp.write_text(json.dumps(spec))
            outs.append(tmp_path / f"o{k}")
            assert cli_main([command, "--input", str(sp),
                             "--out", str(outs[-1])]) == 0
        names = ["drift.json"] + (["trajectory.csv"] if command == "flow"
                                  else [])
        for name in names:
            assert ((outs[0] / name).read_bytes()
                    == (outs[1] / name).read_bytes())

    @pytest.mark.parametrize("plain, twisted, loops", [
        # no sites is no twist
        ({"state": {"connection": _pair_connection()}},
         {"state": {"connection": _pair_connection(),
                    "twists": {"sites": []}}}, 2),
        # twists beside a top-level connection are pushed as in a state
        ({"state": {"connection": _pair_connection(), "twists": _SITE}},
         {"connection": _pair_connection(), "twists": _SITE}, 3)])
    def test_monodromy_twists(self, tmp_path, plain, twisted, loops):
        out = []
        for k, spec in enumerate((plain, twisted)):
            sp = tmp_path / f"spec{k}.json"
            sp.write_text(json.dumps(spec))
            assert cli_main(["monodromy", "--input", str(sp),
                             "--out", str(tmp_path / f"o{k}")]) == 0
            out.append((tmp_path / f"o{k}" / "monodromy.json").read_bytes())
        assert out[0] == out[1]
        assert len(json.loads(out[1])["matrices"]) == loops

    def test_monodromy_keeps_a_base_pole(self, tmp_path, monkeypatch):
        # only a state refuses a base pole: monodromy transports a top-level
        # connection as given
        import isomonodromy.cli as cli
        seen, real = [], cli.monodromy_rep

        def recording(conn, *args, **kwargs):
            seen.append(conn.base_pole)
            return real(conn, *args, **kwargs)

        monkeypatch.setattr(cli, "monodromy_rep", recording)
        sp = tmp_path / "spec.json"
        sp.write_text(json.dumps(
            {"connection": _pair_connection(base_pole=_BASE_POLE)}))
        assert cli_main(["monodromy", "--input", str(sp),
                         "--out", str(tmp_path / "o")]) == 0
        assert seen == [_BASE_POLE]

    @pytest.mark.parametrize("case", sorted(_REFUSED))
    def test_refused_spec(self, flow_spec, tmp_path, monkeypatch, capsys,
                          case):
        # each was answered (exit 0), or ended in a traceback or exit 3
        for name in ("integrate_flow", "monodromy_rep", "residue_pairing"):
            monkeypatch.setattr(f"isomonodromy.cli.{name}", _no_work)
        command, field, make = _REFUSED[case]
        flow_spec.write_text(json.dumps(make(json.loads(
            flow_spec.read_text()))))
        assert cli_main([command, "--input", str(flow_spec),
                         "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("parse error: ")
        assert field in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("change, argv, message", [
        ({"tol": {"speed": 1e-8}}, [], "tol.speed: unknown field"),
        ({"path": {"kind": "spiral"}}, [], "unknown path.kind 'spiral'"),
        ({}, ["--pin", "0", "1", "2", "3"], "at most three poles"),
        (None, [], "No such file or directory"),
        ({"state": None}, [], "spec needs a 'state' or 'connection'")])
    def test_other_parse_errors(self, flow_spec, tmp_path, capsys, change,
                                argv, message):
        spec = json.loads(flow_spec.read_text())
        if change is None:
            flow_spec.unlink()
        else:
            spec.update(change)
            if spec["state"] is None:
                del spec["state"]
            flow_spec.write_text(json.dumps(spec))
        assert cli_main(["flow", "--input", str(flow_spec),
                         "--out", str(tmp_path / "o")] + argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("parse error: ")
        assert message in err

    def test_console_entry_point(self, flow_spec, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "isomonodromy.cli", "monodromy",
             "--input", str(flow_spec), "--out", str(tmp_path / "m")],
            capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0

    def test_console_argument_error_exits_4(self):
        proc = subprocess.run(
            [sys.executable, "-m", "isomonodromy.cli", "flow"],
            capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 4
        assert "--input" in proc.stderr


def _no_work(*args, **kwargs):
    raise AssertionError("the spec should have been refused before this")


def _child_env():
    """This environment with the imported package's ``src`` first on
    ``PYTHONPATH``, so that a child process runs the code under test."""
    src = str(Path(ser.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_cli_import_loads_neither_mpmath_nor_sympy():
    # both are slow to import; the CLI's start-up time must not pay for them
    code = ("import sys, isomonodromy.cli; "
            "print(sorted({'mpmath', 'sympy'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=_child_env())
    assert proc.stdout.strip() == "[]"
