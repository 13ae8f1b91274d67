import json
import subprocess
import sys

import numpy as np
import pytest

import isomonodromy.serialize as ser
from isomonodromy.cli import main as cli_main
from isomonodromy.connection import Connection
from isomonodromy.ratfun import INFINITY, RatMat, RatScalar
from isomonodromy.states import FlowState, PoleData
from isomonodromy.twist import MatrixDivisor, normal_form

from conftest import fuchsian_connection, random_fuchsian_matrices, random_matrix


class TestRoundTrips:
    def test_complex_and_infinity(self):
        assert ser.un_cx(ser.cx(1.25 - 0.5j)) == 1.25 - 0.5j
        assert ser.un_cx("inf") == INFINITY
        assert ser.point(INFINITY) == "inf"

    def test_ratscalar(self, rng):
        f = RatScalar(np.array([1.0, 2.5j]), [(0.5, 2), (-1.0 + 1.0j, 1)])
        g = ser.un_ratscalar(json.loads(json.dumps(ser.ratscalar(f))))
        z = 0.3 + 0.8j
        assert g(z) == f(z)   # bit-equal data round-trip

    def test_ratmat(self, rng):
        A = fuchsian_connection([0.0, 1.0], random_fuchsian_matrices(rng, 2, 2))
        B = ser.un_ratmat(json.loads(json.dumps(ser.ratmat(A))))
        z = 1.7 - 0.2j
        assert np.all(A.eval(z) == B.eval(z))

    def test_connection_bit_equal(self, rng):
        conn = Connection.from_polar_parts(
            [(0.0, [random_matrix(rng, 2), np.diag([0.5, -0.25])]),
             (2.0, [random_matrix(rng, 2)])],
            tail=[random_matrix(rng, 2)])
        d = json.loads(json.dumps(ser.connection(conn)))
        back = ser.un_connection(d)
        jet0 = conn.laurent(0.0, 1).coeffs
        jet1 = back.laurent(0.0, 1).coeffs
        assert np.array_equal(jet0, jet1)

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

    def test_flow_deterministic_bytes(self, flow_spec, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli_main(["flow", "--input", str(flow_spec),
                         "--out", str(out1), "--seed", "7"]) == 0
        assert cli_main(["flow", "--input", str(flow_spec),
                         "--out", str(out2), "--seed", "7"]) == 0
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

    @pytest.mark.parametrize("pin", ["7", "-1"])
    def test_pin_out_of_range(self, flow_spec, tmp_path, pin, capsys):
        rc = cli_main(["flow", "--input", str(flow_spec),
                       "--out", str(tmp_path / "o"), "--pin", pin])
        assert rc == 4
        assert "--pin" in capsys.readouterr().err

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

    def test_console_entry_point(self, flow_spec, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "isomonodromy.cli", "monodromy",
             "--input", str(flow_spec), "--out", str(tmp_path / "m")],
            capture_output=True, text=True)
        assert proc.returncode == 0


def test_cli_import_loads_neither_mpmath_nor_sympy():
    # both are slow to import; the CLI's start-up time must not pay for them
    code = ("import sys, isomonodromy.cli; "
            "print(sorted({'mpmath', 'sympy'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
