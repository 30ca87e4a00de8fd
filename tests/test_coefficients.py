import numpy as np
import pytest
from numpy.testing import assert_allclose

from riccati_cert import coefficients as cf
from riccati_cert.coefficients import (
    CoefficientSet,
    eval_Q_lambda,
    eval_R_lambda,
    eval_S_lambda,
)
from riccati_cert.exceptions import DimensionError, DomainError, NotHermitianError


def scalar_set(t_end=2.0, p=1.0, q=0.0, r=0.0, s=1.0):
    return CoefficientSet(n=1, t0=0.0, t_end=t_end,
                          P=cf.constant([[p]]), Q=cf.constant([[q]]),
                          R=cf.constant([[r]]), S=cf.constant([[s]]))


class TestEval:
    def test_constant(self):
        f = cf.constant(np.eye(2))
        for t in (-1.0, 0.0, 17.3):
            assert_allclose(f.eval(t), np.eye(2))
        assert_allclose(f.derivative(5.0), np.zeros((2, 2)))

    def test_polynomial_linear(self):
        f = cf.polynomial([np.zeros((2, 2)), np.eye(2)], t_ref=1.0)
        assert_allclose(f.eval(3.0), 2 * np.eye(2))
        assert_allclose(f.derivative(3.0), np.eye(2))

    def test_sampled_linear_midpoint(self):
        f = cf.sampled([0.0, 1.0], [np.zeros((2, 2)), np.eye(2)], order=1)
        assert_allclose(f.eval(0.5), 0.5 * np.eye(2))

    def test_sampled_outside_domain(self):
        f = cf.sampled([0.0, 1.0], [np.zeros((1, 1)), np.eye(1)], order=1)
        with pytest.raises(DomainError):
            f.eval(2.0)
        with pytest.raises(DomainError):
            f.derivative(-0.5)

    def test_scalar_kind(self):
        f = cf.polynomial([1.0, 2.0j], scalar=True)
        assert f.eval(2.0) == pytest.approx(1.0 + 4.0j)
        assert f.derivative(2.0) == pytest.approx(2.0j)

    def test_polynomial_degree_cap(self):
        with pytest.raises(ValueError):
            cf.polynomial([np.eye(1)] * 10)


class TestDerivative:
    def test_sampled_grid_derivative_oracle(self):
        # values of t^2 I on an h = 0.01 grid; exact derivative at t = 1 is 2I
        ts = np.arange(0.5, 1.5 + 1e-12, 0.01)
        f = cf.sampled(ts, [t * t * np.eye(2) for t in ts], order=3)
        assert np.linalg.norm(f.derivative(1.0) - 2 * np.eye(2)) < 1e-3

    def test_sampled_cubic_values(self):
        ts = np.linspace(0.0, 2.0, 41)
        f = cf.sampled(ts, [np.array([[np.sin(t)]]) for t in ts], order=3)
        assert abs(f.eval(1.234)[0, 0] - np.sin(1.234)) < 1e-5

    def test_polynomial_matches_central_differences(self):
        # halving h shrinks the discrepancy by >= 3.5x (second order)
        rng = np.random.default_rng(11)
        coeffs = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                  for _ in range(3)]
        coeffs.append(np.eye(2) + rng.standard_normal((2, 2)))  # nonzero third derivative
        f = cf.polynomial(coeffs, t_ref=0.0)
        t = 0.7
        exact = f.derivative(t)

        def fd_err(h):
            fd = (f.eval(t + h) - f.eval(t - h)) / (2 * h)
            return np.linalg.norm(fd - exact)

        assert fd_err(1e-2) / fd_err(5e-3) >= 3.5


class TestGaugeAlgebra:
    def test_zero_gauge_is_bit_identical_to_S(self):
        rng = np.random.default_rng(12)
        s_val = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        cs = CoefficientSet(n=3, t0=0.0, t_end=1.0,
                            P=cf.constant(np.eye(3)), Q=cf.constant(s_val + s_val.conj().T),
                            R=cf.constant(np.zeros((3, 3))), S=cf.constant(s_val))
        lam = cf.zero_matrix_function(3)
        got = eval_S_lambda(cs, lam, 0.3)
        assert np.array_equal(got, cs.S.eval(0.3))

    def test_scalar_constant_example(self):
        # S = 2, L = 1, P = 1, Q = R = 0: S_L = 2 - 0 - 1 - 0 - 0 = 1
        cs = scalar_set(p=1.0, s=2.0)
        lam = cf.constant([[1.0]])
        assert eval_S_lambda(cs, lam, 0.5)[0, 0] == pytest.approx(1.0)

    def test_time_dependent_gauge_example(self):
        # L(t) = t, P = 1, Q = R = S = 0 at t = 1: 0 - 1 - t^2 = -2
        cs = scalar_set(p=1.0, s=0.0)
        lam = cf.polynomial([[[0.0]], [[1.0]]], t_ref=0.0)
        assert eval_S_lambda(cs, lam, 1.0)[0, 0] == pytest.approx(-2.0)

    def test_shifted_coefficients(self):
        cs = scalar_set(p=3.0, q=1.0, r=1.0, s=0.0)
        lam = cf.constant([[2.0]])
        assert eval_Q_lambda(cs, lam, 0.1)[0, 0] == pytest.approx(7.0)  # 1 + 2*3
        assert eval_R_lambda(cs, lam, 0.1)[0, 0] == pytest.approx(7.0)  # 1 + 3*2

    def test_zero_gauge_passthrough(self):
        cs = scalar_set(q=4.0, r=-2.0)
        lam = cf.zero_matrix_function(1)
        assert eval_Q_lambda(cs, lam, 0.0)[0, 0] == pytest.approx(4.0)
        assert eval_R_lambda(cs, lam, 0.0)[0, 0] == pytest.approx(-2.0)

    def test_dimension_mismatch_fails_loudly(self):
        cs = scalar_set()
        with pytest.raises(DimensionError):
            eval_S_lambda(cs, cf.zero_matrix_function(2), 0.5)


class TestCoefficientSet:
    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            scalar_set(t_end=0.0)

    def test_rejects_non_hermitian_P(self):
        with pytest.raises(NotHermitianError):
            CoefficientSet(n=2, t0=0.0, t_end=1.0,
                           P=cf.constant([[0.0, 1.0], [0.0, 0.0]]),
                           Q=cf.constant(np.zeros((2, 2))),
                           R=cf.constant(np.zeros((2, 2))),
                           S=cf.constant(np.zeros((2, 2))))

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(DimensionError):
            CoefficientSet(n=2, t0=0.0, t_end=1.0,
                           P=cf.constant(np.eye(2)), Q=cf.constant(np.zeros((3, 3))),
                           R=cf.constant(np.zeros((2, 2))), S=cf.constant(np.zeros((2, 2))))

    def test_rejects_scalar_function_slot(self):
        with pytest.raises(DimensionError):
            CoefficientSet(n=1, t0=0.0, t_end=1.0,
                           P=cf.constant(1.0, scalar=True), Q=cf.constant([[0.0]]),
                           R=cf.constant([[0.0]]), S=cf.constant([[0.0]]))


def _array_eval_functions():
    rng = np.random.default_rng(31)

    def m():
        return rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))

    nodes = np.linspace(0.0, 1.0, 6)
    return {
        "constant": cf.constant(m()),
        "constant_scalar": cf.constant(0.5 - 2.0j, scalar=True),
        "polynomial": cf.polynomial([m() for _ in range(4)], t_ref=0.3),
        "polynomial_degree0": cf.polynomial([m()]),
        "polynomial_scalar": cf.polynomial([1.0, 2.0j, -0.5], scalar=True),
        "sampled1": cf.sampled(nodes, [m() for _ in nodes], order=1),
        "sampled3": cf.sampled(nodes, [m() for _ in nodes], order=3),
        "sampled3_node_derivatives": cf.sampled(nodes, [m() for _ in nodes], order=3,
                                                node_derivatives=[m() for _ in nodes]),
        "sampled1_scalar": cf.sampled(nodes, rng.standard_normal(6) + 1j, order=1,
                                      scalar=True),
        "sampled3_scalar": cf.sampled(nodes, rng.standard_normal(6) - 1j, order=3,
                                      scalar=True),
    }


ARRAY_EVAL_FUNCTIONS = _array_eval_functions()


class TestArrayEval:
    @pytest.mark.parametrize("method", ["eval", "derivative"])
    @pytest.mark.parametrize("name", sorted(ARRAY_EVAL_FUNCTIONS))
    def test_matches_stacked_scalar_calls_bit_for_bit(self, name, method):
        f = ARRAY_EVAL_FUNCTIONS[name]
        ts = np.linspace(0.0, 1.0, 23)
        got = getattr(f, method)(ts)
        want = np.stack([np.asarray(getattr(f, method)(float(t))) for t in ts])
        assert got.shape == (ts.size,) + f.shape
        assert got.dtype == np.complex128
        assert got.tobytes() == want.tobytes()

    def test_one_point_out_of_domain_raises(self):
        f = ARRAY_EVAL_FUNCTIONS["sampled3"]
        ts = np.array([0.0, 0.5, 1.5, 0.7])
        with pytest.raises(DomainError, match="1.5"):
            f.eval(ts)
        with pytest.raises(DomainError):
            f.derivative(ts)

    def test_gauge_algebra_on_a_stack(self):
        cs = CoefficientSet(n=2, t0=0.0, t_end=1.0,
                            P=cf.polynomial([np.eye(2), np.eye(2)]),
                            Q=ARRAY_EVAL_FUNCTIONS["polynomial"],
                            R=ARRAY_EVAL_FUNCTIONS["sampled3"],
                            S=ARRAY_EVAL_FUNCTIONS["constant"])
        lam = ARRAY_EVAL_FUNCTIONS["sampled1"]
        ts = np.linspace(0.0, 1.0, 7)
        for fn in (eval_S_lambda, eval_Q_lambda, eval_R_lambda):
            want = np.stack([fn(cs, lam, float(t)) for t in ts])
            assert fn(cs, lam, ts).tobytes() == want.tobytes()


class TestDimensionCap:
    def test_cap_follows_matrix_core(self):
        from riccati_cert.matrix_core import MAX_DIM

        f = cf.constant(np.eye(1))
        with pytest.raises(DimensionError, match=f"1..{MAX_DIM}"):
            CoefficientSet(n=MAX_DIM + 1, t0=0.0, t_end=1.0, P=f, Q=f, R=f, S=f)


def _evaluator_functions(n):
    """Constant, sampled and polynomial functions of dimension n in a mixed
    order: every degree 0..8 at two t_refs, and parts equal to -0.0 in the
    coefficients and the constants."""
    rng = np.random.default_rng(7 + n)

    def m():
        # about a third of the real and of the imaginary parts are -0.0;
        # set part by part, since complex arithmetic would drop some signs
        a = np.empty((n, n), dtype=np.complex128)
        a.real = np.where(rng.random((n, n)) < 0.3, -0.0, rng.standard_normal((n, n)))
        a.imag = np.where(rng.random((n, n)) < 0.3, -0.0, rng.standard_normal((n, n)))
        return a

    negative_zero = np.full((n, n), complex(-0.0, -0.0))
    nodes = np.linspace(-3.0, 3.0, 9)
    fs = [cf.constant(m()), cf.constant(negative_zero),
          cf.sampled(nodes, [m() for _ in nodes], order=1),
          cf.sampled(nodes, [m() for _ in nodes], order=3)]
    fs += [cf.polynomial([m() for _ in range(d + 1)], t_ref=t_ref)
           for d in range(cf.MAX_DEGREE + 1) for t_ref in (0.3, -1.25)]
    fs += [cf.polynomial([m(), negative_zero], t_ref=0.3),
           cf.polynomial([negative_zero] * 3, t_ref=-1.25)]
    order = rng.permutation(len(fs))
    return [fs[i] for i in order]


class TestStackedEvaluator:
    # t < both t_refs, each t_ref itself, between them, and beyond
    TIMES = (-2.5, -1.25, -0.5, 0.0, 0.3, 1.0, 2.75)

    @pytest.mark.parametrize("n", [1, 2, 8, 32])
    def test_matches_eval_bit_for_bit(self, n):
        fs = _evaluator_functions(n)
        values = cf.stacked_evaluator(fs)
        for t in self.TIMES:
            got = values(t)
            assert len(got) == len(fs)
            for f, v in zip(fs, got):
                want = f.eval(t)
                assert v.shape == want.shape and v.dtype == want.dtype
                assert v.tobytes() == want.tobytes(), (f.kind, getattr(f, "degree", None), t)

    def test_constants_are_stored_read_only_values(self):
        fs = _evaluator_functions(2)
        got = cf.stacked_evaluator(fs)(0.7)
        for f, v in zip(fs, got):
            if f.kind == "constant":
                assert v is f.value
                assert not v.flags.writeable
                with pytest.raises(ValueError):
                    v[0, 0] = 1.0

    def test_calls_do_not_share_polynomial_values(self):
        f = cf.polynomial([np.eye(2), np.eye(2)])
        values = cf.stacked_evaluator((f, f))
        a, b = values(1.0)
        a2, _ = values(2.0)
        assert a.tobytes() == f.eval(1.0).tobytes() == b.tobytes()
        assert a2.tobytes() == f.eval(2.0).tobytes()

    def test_scalar_functions_go_through_eval(self):
        fs = [ARRAY_EVAL_FUNCTIONS[k] for k in ("constant_scalar", "polynomial_scalar",
                                                 "sampled3_scalar", "polynomial")]
        values = cf.stacked_evaluator(fs)
        for t in (0.0, 0.25, 1.0):
            for f, v in zip(fs, values(t)):
                assert type(v) is type(f.eval(t))
                assert np.asarray(v).tobytes() == np.asarray(f.eval(t)).tobytes()
