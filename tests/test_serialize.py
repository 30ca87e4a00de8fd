import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from riccati_cert import coefficients as cf
from riccati_cert import serialize
from riccati_cert.criteria import GridSpec, build_skew_gauge
from riccati_cert.exceptions import InstanceFormatError, RiccatiError
from riccati_cert.instances import InstanceSpec, gen_satisfying
from riccati_cert.integrate import Trajectory, integrate_riccati_direct
from riccati_cert.serialize import (
    dumps_instance,
    function_to_obj,
    instance_to_obj,
    matrix_to_obj,
    obj_to_function,
    obj_to_matrix,
    pair_to_complex,
    parse_instance,
    read_trajectory_csv,
    write_trajectory_csv,
)


class TestScalars:
    def test_pair_round_trip(self):
        assert pair_to_complex([1.5, -2.0], "x") == 1.5 - 2.0j

    def test_bare_number_is_real(self):
        assert pair_to_complex(3, "x") == 3.0 + 0.0j

    def test_rejects_booleans_and_strings(self):
        for bad in (True, "1", [1.0], [1.0, 2.0, 3.0], None):
            with pytest.raises(InstanceFormatError):
                pair_to_complex(bad, "x")


class TestMatrices:
    def test_round_trip(self):
        m = np.array([[1 + 2j, 0.5], [-1.0, 3 - 1j]])
        assert_allclose(obj_to_matrix(matrix_to_obj(m), 2, "M"), m)

    def test_shape_errors_name_field(self):
        with pytest.raises(InstanceFormatError, match="'M'"):
            obj_to_matrix([[1.0]], 2, "M")
        with pytest.raises(InstanceFormatError, match=r"M\[0\]"):
            obj_to_matrix([[1.0], [1.0, 2.0]], 2, "M")


class TestFunctions:
    def test_constant_round_trip(self):
        f = cf.constant(np.array([[1 + 1j, 0], [0, 2.0]]))
        g = obj_to_function(function_to_obj(f), "P", 2)
        assert_allclose(g.eval(0.7), f.eval(0.7))

    def test_polynomial_round_trip_keeps_t_ref(self):
        f = cf.polynomial([np.eye(2), 2 * np.eye(2)], t_ref=1.5)
        obj = function_to_obj(f)
        assert obj["t_ref"] == 1.5
        g = obj_to_function(obj, "Q", 2)
        assert_allclose(g.eval(2.5), f.eval(2.5))

    def test_sampled_round_trip(self):
        ts = np.linspace(0.0, 1.0, 5)
        f = cf.sampled(ts, [t * np.eye(2) for t in ts], order=1)
        g = obj_to_function(function_to_obj(f), "R", 2)
        assert_allclose(g.eval(0.3), f.eval(0.3))

    def test_sampled_with_node_derivatives_is_refused(self):
        # the schema has no field for node derivatives: written without them,
        # the skew gauge would read back as the natural spline, another function
        cs, _, _, _ = gen_satisfying(InstanceSpec(n=2, seed=4))
        gauge, _ = build_skew_gauge(cs, grid=GridSpec.for_set(cs, 11))
        assert gauge.node_derivatives is not None
        with pytest.raises(RiccatiError, match="node derivatives"):
            function_to_obj(gauge)

    def test_scalar_function(self):
        f = cf.polynomial([1.0, 2.0j], scalar=True)
        g = obj_to_function(function_to_obj(f), "mu", 1, scalar=True)
        assert g.eval(2.0) == pytest.approx(1 + 4j)

    def test_unknown_kind_named(self):
        with pytest.raises(InstanceFormatError, match="'P.kind'"):
            obj_to_function({"kind": "fourier"}, "P", 2)

    def test_sampled_length_mismatch(self):
        with pytest.raises(InstanceFormatError, match="'R'"):
            obj_to_function({"kind": "sampled", "times": [0, 1, 2],
                             "values": [[[0.0]], [[1.0]]]}, "R", 1)


class TestInstanceDocuments:
    def test_full_round_trip(self):
        cs, lam, mu, y0 = gen_satisfying(InstanceSpec(n=2, seed=31))
        obj = instance_to_obj(cs, y0, lam=lam, mu=mu, grid_points=301)
        parsed = parse_instance(json.loads(dumps_instance(obj)))
        assert parsed.cs.n == 2
        assert parsed.grid_points == 301
        assert_allclose(parsed.y0, y0)
        for t in (0.0, 2.5, 5.0):
            assert_allclose(parsed.cs.S.eval(t), cs.S.eval(t), atol=1e-15)
            assert_allclose(parsed.lam.eval(t), lam.eval(t), atol=1e-15)

    def test_nu_round_trip_is_cor32_gauge(self, tmp_path, capsys):
        from riccati_cert.cli import main
        from riccati_cert.serialize import load_instance

        eye = np.eye(2)
        q = np.array([[0.5, 1.0 - 2.0j], [0.25j, -1.0]])
        nu = cf.polynomial([0.5, -0.25], scalar=True)
        # R = Q* + nu I makes cor3.2's frame term T zero
        cs = cf.CoefficientSet(n=2, t0=0.0, t_end=2.0, P=cf.polynomial([2 * eye, eye]),
                               Q=cf.constant(q), R=cf.polynomial([q.conj().T + 0.5 * eye,
                                                                  -0.25 * eye]),
                               S=cf.constant(eye))
        path = tmp_path / "nu.json"
        path.write_text(dumps_instance(instance_to_obj(cs, eye, nu=nu)))
        ts = GridSpec.for_set(cs).points
        assert np.array_equal(load_instance(str(path)).nu.eval(ts), nu.eval(ts))
        assert main(["check", str(path), "--criterion", "cor3.2"]) == 0
        extracted = json.loads(capsys.readouterr().out)["extracted_nu"]
        assert extracted["times"] == ts.tolist()
        assert [complex(*v) for v in extracted["values"]] == nu.eval(ts).tolist()

    def test_missing_lambda_is_none(self):
        from riccati_cert.instances import gen_blowup

        cs, y0 = gen_blowup(InstanceSpec(n=1, seed=0, target="blowup"))
        parsed = parse_instance(instance_to_obj(cs, y0))
        assert parsed.lam is None and parsed.mu is None and parsed.nu is None

    def test_bad_grid_points(self):
        cs, lam, mu, y0 = gen_satisfying(InstanceSpec(n=1, seed=0))
        obj = instance_to_obj(cs, y0)
        obj["grid_points"] = 1
        with pytest.raises(InstanceFormatError, match="grid_points"):
            parse_instance(obj)

    def test_non_hermitian_P_rejected(self):
        obj = {
            "n": 2, "t0": 0.0, "t_end": 1.0,
            "P": {"kind": "constant", "value": [[0.0, 1.0], [0.0, 0.0]]},
            "Q": {"kind": "constant", "value": [[0.0, 0.0], [0.0, 0.0]]},
            "R": {"kind": "constant", "value": [[0.0, 0.0], [0.0, 0.0]]},
            "S": {"kind": "constant", "value": [[0.0, 0.0], [0.0, 0.0]]},
            "Y0": [[0.0, 0.0], [0.0, 0.0]],
        }
        with pytest.raises(InstanceFormatError, match="Hermitian"):
            parse_instance(obj)

    def test_deterministic_dump(self):
        cs, lam, mu, y0 = gen_satisfying(InstanceSpec(n=2, seed=8))
        a = dumps_instance(instance_to_obj(cs, y0, lam=lam, mu=mu))
        b = dumps_instance(instance_to_obj(cs, y0, lam=lam, mu=mu))
        assert a == b


class TestTrajectoryCSV:
    def test_round_trip_keeps_every_part(self, tmp_path):
        """The reader returns the samples the writer wrote, bit for bit:
        signed zeros in the real and in the imaginary part included."""
        parts = np.array([[0.0, -0.0, -0.0, 0.0, -0.0, -0.0, 1.5, -0.0],
                          [-0.0, 2.5, 5e-324, -0.0, 0.0, 0.0, -3.0, -0.0],
                          [-0.0, -1e-300, 0.0, -0.0, -0.0, 1e22, -0.0, -5e-324]])
        traj = Trajectory(times=np.array([0.0, 0.5, 1.0]),
                          values=parts.view(np.complex128).reshape(3, 2, 2),
                          status="completed", method="test")
        eye = np.eye(2)
        cs = cf.CoefficientSet(n=2, t0=0.0, t_end=1.0, P=cf.constant(eye),
                               Q=cf.constant(0 * eye), R=cf.constant(0 * eye),
                               S=cf.constant(eye))
        path = str(tmp_path / "traj.csv")
        write_trajectory_csv(path, traj, cs)
        times, values = read_trajectory_csv(path, 2)
        assert times.tobytes() == traj.times.tobytes()
        assert values.tobytes() == traj.values.tobytes()


class TestOutputFile:
    def test_writer_that_raises_leaves_no_old_tail(self, tmp_path, monkeypatch):
        """A CSV write that stops at row 5 of 11, over a 201-sample file,
        leaves the header and rows 0 to 4 of a fresh write, and nothing more."""
        cs, _, _, y0 = gen_satisfying(InstanceSpec(n=2, seed=1))
        long, short = (integrate_riccati_direct(cs, y0, sample_times=np.linspace(
            cs.t0, cs.t_end, m)) for m in (201, 11))
        path, fresh = tmp_path / "traj.csv", tmp_path / "fresh.csv"
        write_trajectory_csv(str(path), long, cs)
        write_trajectory_csv(str(fresh), short, cs)
        stop = float(short.times[5])

        def row_repr(x):
            if x == stop:
                raise RuntimeError("formatter failed")
            return repr(x)

        monkeypatch.setattr(serialize, "repr", row_repr, raising=False)
        with pytest.raises(RuntimeError, match="formatter failed"):
            write_trajectory_csv(str(path), short, cs)
        head = b"".join(fresh.read_bytes().splitlines(keepends=True)[:6])
        assert path.read_bytes() == head
