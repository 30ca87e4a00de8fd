import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from riccati_cert import coefficients as cf
from riccati_cert.criteria import GridSpec, build_skew_gauge
from riccati_cert.exceptions import InstanceFormatError, RiccatiError
from riccati_cert.instances import InstanceSpec, gen_satisfying
from riccati_cert.serialize import (
    dumps_instance,
    function_to_obj,
    instance_to_obj,
    matrix_to_obj,
    obj_to_function,
    obj_to_matrix,
    pair_to_complex,
    parse_instance,
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
