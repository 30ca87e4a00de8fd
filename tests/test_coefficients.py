import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from riccati_cert import coefficients as cf
from riccati_cert import criteria
from riccati_cert.coefficients import CoefficientSet, _shifted_source
from riccati_cert.exceptions import DimensionError, DomainError, NotHermitianError


def scalar_set(t_end=2.0, p=1.0, q=0.0, r=0.0, s=1.0):
    return CoefficientSet(n=1, t0=0.0, t_end=t_end,
                          P=cf.constant([[p]]), Q=cf.constant([[q]]),
                          R=cf.constant([[r]]), S=cf.constant([[s]]))


def s_lambda(cs, lam, t):
    """S_L(t) by the formula theorem3.1's scan runs, on ``eval`` values at a
    time or an array of times."""
    return _shifted_source(*(f.eval(t) for f in (cs.P, cs.Q, cs.R, cs.S, lam)), lam.derivative(t))


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

    def test_sampled_linear_on_a_subnormal_spacing_builds_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = cf.sampled([0.0, 5e-324], [0.0, 1.0], order=1, scalar=True)
        assert f.order == 1

    def test_scalar_kind(self):
        f = cf.polynomial([1.0, 2.0j], scalar=True)
        assert f.eval(2.0) == pytest.approx(1.0 + 4.0j)
        assert f.derivative(2.0) == pytest.approx(2.0j)

    def test_polynomial_degree_cap(self):
        with pytest.raises(ValueError):
            cf.polynomial([np.eye(1)] * 10)

    @pytest.mark.parametrize("t_ref", [np.inf, -np.inf, np.nan])
    def test_polynomial_refuses_a_non_finite_t_ref(self, t_ref):
        # evaluated, (t - inf) times a zero coefficient is NaN: refused at construction
        with pytest.raises(ValueError, match=r"^polynomial t_ref must be finite, got "):
            cf.polynomial([[[1.0]], [[1.0]]], t_ref=t_ref)


def _derivative_cases():
    """One function of each kind; the sampled ones hold sin(3t) M on an
    h = 0.1 grid over [0, 2] (the Hermite one with the exact node slopes)."""
    rng = np.random.default_rng(17)
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    nodes = np.linspace(0.0, 2.0, 21)
    values = [np.sin(3 * t) * m for t in nodes]
    return m, {
        "constant": cf.constant(m),
        "polynomial": cf.polynomial([m, 2 * m, -m, 0.5 * m], t_ref=0.3),
        "sampled1": cf.sampled(nodes, values, order=1),
        "sampled3": cf.sampled(nodes, values, order=3),
        "sampled3_scalar": cf.sampled(nodes, np.sin(3 * nodes) + 0.5j, order=3, scalar=True),
        "hermite": cf.sampled(nodes, values, order=3,
                              node_derivatives=[3 * np.cos(3 * t) * m for t in nodes]),
    }


SINE_MATRIX, DERIVATIVE_CASES = _derivative_cases()
# inside the cells, so an order-1 difference quotient never straddles a node
INSIDE_CELLS = np.linspace(0.0, 2.0, 21)[:-1] + 0.037


class TestDerivative:
    @pytest.mark.parametrize("name", sorted(DERIVATIVE_CASES))
    def test_is_the_derivative_of_eval(self, name):
        f, h = DERIVATIVE_CASES[name], 1e-6
        fd = (f.eval(INSIDE_CELLS + h) - f.eval(INSIDE_CELLS - h)) / (2 * h)
        assert np.max(np.abs(f.derivative(INSIDE_CELLS) - fd)) <= 1e-7 * (1 + np.max(np.abs(fd)))

    def test_sampled_cubic_derivative_oracle(self):
        # the spline's own derivative of sin(3t) M is O(h^3) off 3 cos(3t) M
        # away from the natural ends
        ts = INSIDE_CELLS[5:-5]
        exact = 3 * np.cos(3 * ts)[:, None, None] * SINE_MATRIX
        err = np.abs(DERIVATIVE_CASES["sampled3"].derivative(ts) - exact).max()
        assert err < 1e-2 * np.abs(SINE_MATRIX).max()

    def test_two_node_cubic_is_the_line(self):
        f = cf.sampled([0.0, 2.0], [np.zeros((1, 1)), 4 * np.eye(1)], order=3)
        assert_allclose(f.eval(0.5), [[1.0]], atol=1e-15)
        assert_allclose(f.derivative(np.array([0.0, 1.3, 2.0])), np.full((3, 1, 1), 2.0))

    def test_node_derivatives_need_order_3(self):
        with pytest.raises(ValueError, match="order 3"):
            cf.sampled([0.0, 1.0], [np.eye(1)] * 2, order=1, node_derivatives=[np.eye(1)] * 2)

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
        lam = cf.constant(np.zeros((3, 3)))
        got = s_lambda(cs, lam, 0.3)
        assert np.array_equal(got, cs.S.eval(0.3))

    def test_scalar_constant_example(self):
        # S = 2, L = 1, P = 1, Q = R = 0: S_L = 2 - 0 - 1 - 0 - 0 = 1
        cs = scalar_set(p=1.0, s=2.0)
        lam = cf.constant([[1.0]])
        assert s_lambda(cs, lam, 0.5)[0, 0] == pytest.approx(1.0)

    def test_time_dependent_gauge_example(self):
        # L(t) = t, P = 1, Q = R = S = 0 at t = 1: 0 - 1 - t^2 = -2
        cs = scalar_set(p=1.0, s=0.0)
        lam = cf.polynomial([[[0.0]], [[1.0]]], t_ref=0.0)
        assert s_lambda(cs, lam, 1.0)[0, 0] == pytest.approx(-2.0)

    def test_shifted_coefficients(self):
        # P = 3, Q = R = 1, S = 0, L = 2: S_L = 0 - 0 - 12 - 2 - 2 = -16
        cs = scalar_set(p=3.0, q=1.0, r=1.0, s=0.0)
        assert s_lambda(cs, cf.constant([[2.0]]), 0.1)[0, 0] == pytest.approx(-16.0)
        # Q L and L R, not L Q and R L: with L nilpotent (L P L = 0) the
        # products differ in their (0, 1) entry
        lam = cf.constant([[0.0, 1.0], [0.0, 0.0]])
        d, z = np.diag([1.0, 2.0]), np.zeros((2, 2))
        for q, r, want in ((d, z, -1.0), (z, d, -2.0)):
            cs = CoefficientSet(n=2, t0=0.0, t_end=1.0, P=cf.constant(np.eye(2)),
                                Q=cf.constant(q), R=cf.constant(r), S=cf.constant(z))
            assert_allclose(s_lambda(cs, lam, 0.1), [[0.0, want], [0.0, 0.0]], atol=0)

    def test_zero_gauge_passthrough(self):
        cs = scalar_set(q=4.0, r=-2.0, s=1.5)
        assert s_lambda(cs, cf.constant(np.zeros((1, 1))), 0.0)[0, 0] == 1.5

    def test_dimension_mismatch_fails_loudly(self):
        cs = scalar_set()
        with pytest.raises(DimensionError, match="^lambda has dimension 2, expected 1$"):
            cf._require_gauge(cf.constant(np.zeros((2, 2))), cs.n, "lambda")
        with pytest.raises(DimensionError, match="^lambda has dimension 2, expected 1$"):
            criteria.check_gauge_criterion(cs, cf.constant(np.zeros((2, 2))), np.eye(1))


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


BAD_INTERVALS = [(1.0, 1.0), (1.0, 0.0), (np.nan, 1.0), (0.0, np.inf), (-1e308, 1e308),
                 (1e17, 1e17 + 1.0)]


class TestOneRulePerInput:
    """t0 < t_end (with a finite span) and n in 1..MAX_DIM are each one rule,
    applied with one message wherever an interval or a dimension is given."""

    @pytest.mark.parametrize("t0, t_end", BAD_INTERVALS)
    def test_interval_rule(self, t0, t_end):
        # InstanceSpec applies it to t0 + horizon: see the gen tests in test_cli.py
        from riccati_cert.criteria import GridSpec

        f = cf.constant([[1.0]])
        for build in (lambda: CoefficientSet(n=1, t0=t0, t_end=t_end, P=f, Q=f, R=f, S=f),
                      lambda: GridSpec(t0, t_end)):
            with pytest.raises(ValueError, match=r"^t_end - t0 must be a finite positive number"):
                build()

    @pytest.mark.parametrize("order", [True, 1.0, 3.0, 2])
    def test_order_rule(self, order):
        # the instance parser applies it as field '<f>.order': see test_refusal_path.py
        with pytest.raises(ValueError, match=r"^interpolation order must be the integer 1 or 3$"):
            cf.sampled([0.0, 1.0], [np.eye(1)] * 2, order=order)
        with pytest.raises(ValueError, match=r"^field 'P.order' must be the integer 1 or 3$"):
            cf._require_order(order, "field 'P.order'")

    @pytest.mark.parametrize("n", [0, 65])
    def test_dimension_rule(self, n):
        from riccati_cert.instances import InstanceSpec

        f = cf.constant(np.eye(1))
        for build, name in ((lambda: InstanceSpec(n=n, seed=0), "n"),
                            (lambda: CoefficientSet(n=n, t0=0.0, t_end=1.0, P=f, Q=f, R=f, S=f),
                             "n"),
                            (lambda: cf.constant(np.eye(n)), "constant value dimension")):
            with pytest.raises(DimensionError, match=rf"^{name} must be in 1..64, got {n}$"):
                build()
        assert issubclass(DimensionError, ValueError)


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
        want = np.stack([s_lambda(cs, lam, float(t)) for t in ts])
        assert s_lambda(cs, lam, ts).tobytes() == want.tobytes()


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


def assert_stacks_match(fs, stacks, ts, derivatives=()):
    """One stack per function, then one per derivative, each equal bit for bit
    to the array call and, row by row, to the call at each scalar time."""
    calls = [(f, f.eval) for f in fs] + [(f, f.derivative) for f in derivatives]
    assert len(stacks) == len(calls)
    for (f, call), stack in zip(calls, stacks):
        want = call(ts)
        assert isinstance(stack, np.ndarray) and stack.dtype == np.complex128
        assert stack.shape == (ts.size,) + f.shape == want.shape
        assert stack.tobytes() == want.tobytes(), (f.kind, getattr(f, "degree", None))
        for t, row in zip(ts.tolist(), stack):
            assert row.tobytes() == np.asarray(call(t)).tobytes(), (f.kind, t)


class TestStackedEvaluator:
    # t < both t_refs, each t_ref itself, between them, and beyond
    TIMES = (-2.5, -1.25, -0.5, 0.0, 0.3, 1.0, 2.75)

    @pytest.mark.parametrize("n", [1, 2, 8, 32])
    def test_matches_eval_bit_for_bit(self, n):
        fs = _evaluator_functions(n)
        values = cf.stacked_evaluator(fs)
        # all the times in one call, and each on its own
        for ts in [np.array(self.TIMES)] + [np.array([t]) for t in self.TIMES]:
            assert_stacks_match(fs, values(ts), ts)

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_derivatives_follow_the_values(self, n):
        fs = _evaluator_functions(n)
        derivatives = fs[::-1][:-3]
        values = cf.stacked_evaluator(fs, derivatives)
        for ts in [np.array(self.TIMES)] + [np.array([t]) for t in self.TIMES[:2]]:
            assert_stacks_match(fs, values(ts), ts, derivatives)

    def test_derivatives_alone(self):
        fs = _evaluator_functions(2)
        ts = np.array(self.TIMES)
        assert_stacks_match([], cf.stacked_evaluator((), fs)(ts), ts, fs)

    def test_constants_are_read_only_broadcasts_of_their_values(self):
        fs = [f for f in _evaluator_functions(2) if f.kind == "constant"]
        ts = np.array([0.0, 0.7, 1.5])
        stacks = cf.stacked_evaluator(fs, fs)(ts)
        for f, stack in zip(fs + fs, stacks):
            assert not stack.flags.writeable
            with pytest.raises(ValueError):
                stack[0, 0, 0] = 1.0
        for f, stack in zip(fs, stacks):
            assert np.shares_memory(stack, f.value)
            assert all(row.tobytes() == f.value.tobytes() for row in stack)
        for stack in stacks[len(fs):]:
            assert stack.tobytes() == np.zeros((3, 2, 2), dtype=np.complex128).tobytes()

    def test_constant_says_whether_every_function_is_a_constant(self):
        const = cf.constant(np.eye(2))
        assert cf.stacked_evaluator((const, const), (const,)).constant
        # a degree-0 polynomial takes one value too, but is not stored as a constant
        assert not cf.stacked_evaluator((const, cf.polynomial([np.eye(2)]))).constant
        assert not cf.stacked_evaluator((const,), (ARRAY_EVAL_FUNCTIONS["sampled3"],)).constant

    def test_calls_do_not_share_polynomial_values(self):
        f = cf.polynomial([np.eye(2), np.eye(2)])
        values = cf.stacked_evaluator((f, f))
        a, b = values(np.array([1.0]))
        values(np.array([2.0]))
        assert a[0].tobytes() == f.eval(1.0).tobytes() == b[0].tobytes()

    def test_scalar_functions_come_back_as_arrays(self):
        fs = [ARRAY_EVAL_FUNCTIONS[k] for k in ("constant_scalar", "polynomial_scalar",
                                                 "sampled3_scalar", "sampled1_scalar",
                                                 "polynomial")]
        ts = np.array([0.0, 0.25, 1.0])
        assert_stacks_match(fs, cf.stacked_evaluator(fs, fs)(ts), ts, fs)

    def test_another_kind_goes_through_its_own_methods(self):
        class Shifted(cf.CoefficientFunction):
            kind = "shifted"

            def __init__(self, f):
                self.f, self.shape, self.calls = f, f.shape, []

            def eval(self, t):
                self.calls.append(("eval", np.shape(t)))
                return self.f.eval(t)

            def derivative(self, t):
                self.calls.append(("derivative", np.shape(t)))
                return self.f.derivative(t)

        f = Shifted(ARRAY_EVAL_FUNCTIONS["sampled3"])
        ts = np.linspace(0.0, 1.0, 5)
        stacks = cf.stacked_evaluator((f,), (f,))(ts)
        assert f.calls == [("eval", (5,)), ("derivative", (5,))]
        f.calls.clear()
        assert_stacks_match([f], stacks, ts, [f])

    def test_the_grouped_work_runs_in_evaluate_passes(self, monkeypatch):
        """The evaluator calls ``evaluate_passes`` by its module-level name, so
        a wrapper bound to that name (as a profiler installs) sees each call."""
        seen = []
        evaluate = cf.evaluate_passes
        monkeypatch.setattr(cf, "evaluate_passes",
                            lambda *args: seen.append(args[-1].size) or evaluate(*args))
        fs = _evaluator_functions(2)
        cf.stacked_evaluator(fs)(np.array(self.TIMES))
        assert seen == [len(self.TIMES)]


def _mixed_functions(data, n, derivatives):
    """Functions drawn for the property test below: constants, polynomials
    about two t_refs, sampled functions on two grids and of both orders (a
    Hermite cubic among them), matrix- and scalar-valued, with parts equal
    to -0.0; and the derivatives requested among them."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    grids = (np.linspace(-3.0, 3.0, 9), np.array([-3.0, -2.2, -0.4, 0.0, 1.3, 3.0]))

    def values(k, scalar):
        shape = (k,) if scalar else (k, n, n)
        a = np.empty(shape, dtype=np.complex128)
        a.real = np.where(rng.random(shape) < 0.3, -0.0, rng.standard_normal(shape))
        a.imag = np.where(rng.random(shape) < 0.3, -0.0, rng.standard_normal(shape))
        return a

    fs = []
    for kind, scalar in data.draw(st.lists(st.tuples(
            st.sampled_from(["constant", "polynomial", "sampled"]), st.booleans()),
            min_size=1, max_size=8), label="kinds"):
        if kind == "constant":
            fs.append(cf.constant(values(1, scalar)[0], scalar=scalar))
        elif kind == "polynomial":
            degree = data.draw(st.integers(0, cf.MAX_DEGREE), label="degree")
            t_ref = data.draw(st.sampled_from([0.3, -1.25]), label="t_ref")
            fs.append(cf.polynomial(values(degree + 1, scalar), t_ref=t_ref, scalar=scalar))
        else:
            nodes = data.draw(st.sampled_from(grids), label="grid")
            order = data.draw(st.sampled_from([1, 3]), label="order")
            hermite = order == 3 and data.draw(st.booleans(), label="hermite")
            fs.append(cf.sampled(nodes, values(nodes.size, scalar), order=order, scalar=scalar,
                                 node_derivatives=values(nodes.size, scalar) if hermite else None))
    chosen = data.draw(st.lists(st.integers(0, len(fs) - 1), max_size=len(fs) if derivatives
                                else 0), label="derivatives")
    return fs, [fs[i] for i in chosen]


class TestStackedEvaluatorProperty:
    @settings(derandomize=True, deadline=None, max_examples=60, database=None)
    @given(data=st.data(), n=st.sampled_from([1, 2, 3]), derivatives=st.booleans(),
           times=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=9))
    def test_every_stack_equals_its_own_call(self, data, n, derivatives, times):
        fs, derived = _mixed_functions(data, n, derivatives)
        ts = np.array(times)
        assert_stacks_match(fs, cf.stacked_evaluator(fs, derived)(ts), ts, derived)


def _sampled_group_functions():
    """P, Q, R, S sampled on one grid (natural and Hermite cubics, parts
    equal to -0.0), and one function each on another grid, of order 1, of
    another shape, and scalar-valued."""
    rng = np.random.default_rng(41)
    nodes = np.linspace(-3.0, 3.0, 9)

    def stack(k, n=2):
        a = np.empty((k, n, n), dtype=np.complex128)
        a.real = np.where(rng.random((k, n, n)) < 0.3, -0.0, rng.standard_normal((k, n, n)))
        a.imag = np.where(rng.random((k, n, n)) < 0.3, -0.0, rng.standard_normal((k, n, n)))
        return a

    pqrs = [cf.sampled(nodes, stack(9)) for _ in range(3)]
    pqrs.append(cf.sampled(nodes, stack(9), node_derivatives=stack(9)))
    apart = {"grid": cf.sampled(np.linspace(-3.0, 3.0, 7), stack(7)),
             "order": cf.sampled(nodes, stack(9), order=1),
             "shape": cf.sampled(nodes, stack(9, 3)),
             "scalar": cf.sampled(nodes, rng.standard_normal(9) + 0.5j, scalar=True)}
    return pqrs, apart


class TestGroupedSampled:
    """``stacked_evaluator`` evaluates sampled functions of one grid, order
    and shape in one ``_cell_sum`` over their stacked cells."""

    TIMES = (-3.0, -2.9, -0.75, 0.0, 1e-9, 2.25, 3.0)

    def record_groups(self, monkeypatch, functions):
        sums = []
        cell_sum = cf._cell_sum
        monkeypatch.setattr(cf, "_cell_sum", lambda cells, times: sums.append(
            (cells.shape[2], times.size)) or cell_sum(cells, times))
        cf.stacked_evaluator(functions)
        return sorted(sums)

    def test_one_grid_is_one_group(self, monkeypatch):
        pqrs, _ = _sampled_group_functions()
        assert self.record_groups(monkeypatch, pqrs) == [(4, 9)]

    @pytest.mark.parametrize("other", ["grid", "order", "shape"])
    def test_another_grid_order_or_shape_stays_apart(self, monkeypatch, other):
        pqrs, apart = _sampled_group_functions()
        fs = pqrs[:2] + [apart[other]] + pqrs[2:]
        assert self.record_groups(monkeypatch, fs) == [(1, apart[other].times.size), (4, 9)]

    def test_values_equal_eval_bit_for_bit(self):
        pqrs, apart = _sampled_group_functions()
        fs = [apart["shape"], *pqrs[:2], apart["grid"], cf.constant(np.eye(2)), pqrs[2],
              apart["order"], apart["scalar"], pqrs[3],
              cf.polynomial([np.eye(2), np.eye(2)], t_ref=0.5)]
        values = cf.stacked_evaluator(fs, fs)
        for ts in [np.array(self.TIMES)] + [np.array([t]) for t in self.TIMES]:
            assert_stacks_match(fs, values(ts), ts, fs)

    def test_a_time_outside_the_grid_raises(self):
        pqrs, _ = _sampled_group_functions()
        with pytest.raises(DomainError, match="3.5"):
            cf.stacked_evaluator(pqrs)(np.array([0.0, 3.5]))


# ---------------------------------------------------------------------------
# The one Horner against the per-function Horner it replaced
# ---------------------------------------------------------------------------

def reference_horner(coeffs: np.ndarray, t_ref: float, t) -> np.ndarray:
    """The per-function Horner ``PolynomialFunction`` used before it shared
    ``_staggered_horner``: a Python-float offset at a scalar time, an
    (m, 1, 1) column of offsets on a time array, and acc = acc * dt + C_k."""
    shape = coeffs.shape[1:]
    if isinstance(t, (float, int)) or np.ndim(t) == 0:
        dt, acc = float(t) - t_ref, coeffs[-1].copy()
    else:
        ts = np.asarray(t, dtype=np.float64)
        dt = (ts - t_ref).reshape(ts.shape + (1,) * len(shape))
        acc = np.broadcast_to(coeffs[-1], ts.shape + shape).copy()
    for k in range(coeffs.shape[0] - 2, -1, -1):
        acc = acc * dt + coeffs[k]
    return acc


def _scalar_polynomials():
    """Scalar-kind polynomials of every degree 0..8, with -0.0 parts."""
    rng = np.random.default_rng(5)
    out = []
    for d in range(cf.MAX_DEGREE + 1):
        c = np.empty(d + 1, dtype=np.complex128)
        c.real = np.where(rng.random(d + 1) < 0.3, -0.0, rng.standard_normal(d + 1))
        c.imag = np.where(rng.random(d + 1) < 0.3, -0.0, rng.standard_normal(d + 1))
        out.append(cf.polynomial(c, t_ref=0.3, scalar=True))
    return out


class TestOneHorner:
    TIMES = TestStackedEvaluator.TIMES + (np.linspace(-3.0, 3.0, 1001),)

    @staticmethod
    def polynomials(n):
        fs = _evaluator_functions(n) + (_scalar_polynomials() if n == 1 else [])
        return [f for f in fs if f.kind == "polynomial"]

    @pytest.mark.parametrize("n", [1, 2, 8, 32])
    def test_eval_and_derivative_match_the_reference(self, n):
        for f in self.polynomials(n):
            for t in self.TIMES:
                for got, coeffs in ((f.eval(t), f.coefficients),
                                    (f.derivative(t), cf._poly_diff(f.coefficients))):
                    want = reference_horner(coeffs, f.t_ref, t)
                    assert np.asarray(got).tobytes() == want.tobytes(), (f.degree, np.ndim(t))

    @pytest.mark.parametrize("n", [1, 2, 8, 32])
    def test_stacked_evaluator_matches_the_reference(self, n):
        polys = self.polynomials(n)
        values = cf.stacked_evaluator(polys)
        # each scalar time on its own, and the 1001-point grid in one call
        # (every tenth point at n = 32, where the whole grid needs 330 MB)
        grid = self.TIMES[-1] if n <= 8 else self.TIMES[-1][::10]
        calls = [np.array([t]) for t in self.TIMES[:-1]] + [grid]
        for ts in calls:
            for f, stack in zip(polys, values(ts)):
                for t, got in zip(ts.tolist(), stack):
                    want = reference_horner(f.coefficients, f.t_ref, t)
                    assert got.tobytes() == want.tobytes(), (f.degree, t)


# ---------------------------------------------------------------------------
# One check per stack of values
# ---------------------------------------------------------------------------

def _malformed(case):
    """(values, scalar, exception type, index named) of a malformed stack."""
    m = np.ones((2, 2))
    nan = np.ones((2, 2))
    nan[1, 0] = np.nan
    return {
        "ragged": ([m, m, np.ones((3, 3)), m], False, DimensionError, 2),
        "non_square": ([np.ones((2, 3))] * 4, False, DimensionError, 0),
        "n65": ([np.eye(65)] * 4, False, DimensionError, 0),
        "nan": ([m, m, m, nan], False, ValueError, 3),
        "nan_scalar": ([1.0, complex(0.0, np.inf), 2.0, 3.0], True, ValueError, 1),
        "matrix_as_scalar": ([1.0, 2.0, m, 3.0], True, DimensionError, 2),
        "matrices_as_scalars": ([m] * 4, True, DimensionError, 0),
    }[case]


STACK_KINDS = {
    "polynomial coefficient": lambda v, scalar: cf.polynomial(v, scalar=scalar),
    "sampled value": lambda v, scalar: cf.sampled(np.arange(4.0), v, scalar=scalar),
    "node derivative": lambda v, scalar: cf.sampled(
        np.arange(4.0), np.zeros(4) if scalar else [np.eye(2)] * 4, scalar=scalar,
        node_derivatives=v),
}


class TestMalformedStacks:
    @pytest.mark.parametrize("case", ["ragged", "non_square", "n65", "nan", "nan_scalar",
                                      "matrix_as_scalar", "matrices_as_scalars"])
    @pytest.mark.parametrize("label", sorted(STACK_KINDS))
    def test_raises_the_type_and_names_the_first_bad_index(self, label, case):
        values, scalar, exc, k = _malformed(case)
        with pytest.raises(exc, match=rf"\b{re.escape(label)} {k}\b"):
            STACK_KINDS[label](values, scalar)

    def test_any_iterable_of_values(self):
        f = cf.polynomial(np.eye(2) * k for k in (1.0, 2.0))
        assert f.eval(1.0).tobytes() == (3.0 * np.eye(2) + 0j).tobytes()

    def test_scalar_matrix_values_read_as_1x1(self):
        f = cf.sampled([0.0, 1.0], [2.0, 4.0])
        assert f.shape == (1, 1)
        assert f.eval(0.5).tobytes() == np.array([[3.0 + 0j]]).tobytes()
