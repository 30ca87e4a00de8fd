import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import frame_oracle
from riccati_cert import coefficients as cf
from riccati_cert import criteria
from riccati_cert.coefficients import CoefficientSet, _poly_add, _poly_mul
from riccati_cert.criteria import (
    GridSpec,
    build_skew_gauge,
    check_comparison_hypotheses,
    check_gauge_criterion,
    check_skew_gauge_criterion,
    check_sqrt_frame_criterion,
    run_criterion,
)
from riccati_cert.exceptions import DimensionError, NotPositiveDefiniteError
from riccati_cert.instances import InstanceSpec, gen_comparison, gen_satisfying
from riccati_cert.matrix_core import _hermitian_sqrt, adjoint, block_slices


def make_set(n, t_end=1.0, t0=0.0, **kw):
    zero = cf.constant(np.zeros((n, n)))
    return CoefficientSet(n=n, t0=t0, t_end=t_end,
                          P=kw.get("P", cf.constant(np.eye(n))),
                          Q=kw.get("Q", zero), R=kw.get("R", zero),
                          S=kw.get("S", zero))


def grid(cs, num=21):
    return GridSpec.for_set(cs, num)


def gauge_report(cs, lam=None, num=21):
    """theorem3.1 on the grid of ``num`` points, from a Y0 that passes the
    initial clause of a zero gauge; the grid conditions are read from it."""
    return check_gauge_criterion(cs, lam, np.eye(cs.n), grid(cs, num))


class TestPositivityCondition:
    def test_identity_passes(self):
        cs = make_set(2)
        rec = gauge_report(cs).condition("coefficient_psd")
        assert rec.passed and rec.worst_value == pytest.approx(1.0)

    def test_small_negative_fails(self):
        cs = make_set(2, P=cf.constant(np.diag([1.0, -1e-3])))
        rec = gauge_report(cs).condition("coefficient_psd")
        assert not rec.passed
        assert rec.worst_value == pytest.approx(-1e-3)

    def test_monotone_scalar_worst_at_left_end(self):
        # P(t) = (1 + t^2) I on [0, 1]: minimum is 1 at t = 0
        cs = make_set(2, P=cf.polynomial([np.eye(2), np.zeros((2, 2)), np.eye(2)]))
        rec = gauge_report(cs).condition("coefficient_psd")
        assert rec.passed
        assert rec.worst_value == pytest.approx(1.0)
        assert rec.worst_time == pytest.approx(0.0)


class TestScalarShiftCondition:
    def test_scalar_case_always_matches(self):
        cs = make_set(1, Q=cf.constant([[3.0 + 1.0j]]), R=cf.constant([[5.0]]))
        rep = gauge_report(cs)
        assert rep.condition("scalar_shift").passed
        assert complex(rep.extracted_mu.eval(0.5)) == pytest.approx(2.0 + 1.0j)

    def test_non_scalar_mismatch_fails(self):
        cs = make_set(2, R=cf.constant(np.diag([1.0, 2.0])))
        rep = gauge_report(cs)
        rec = rep.condition("scalar_shift")
        assert not rec.passed
        assert complex(rep.extracted_mu.eval(0.0)) == pytest.approx(1.5)
        assert rec.worst_value == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_constructed_shift_reextracts(self):
        # R := Q* + P(L* - L) + 3I with a real skew gauge: extraction gives 3
        lam_val = np.array([[0.0, 0.5], [-0.5, 0.0]])
        r = lam_val.conj().T - lam_val + 3.0 * np.eye(2)
        cs = make_set(2, R=cf.constant(r))
        rep = gauge_report(cs, cf.constant(lam_val))
        assert rep.condition("scalar_shift").passed
        assert complex(rep.extracted_mu.eval(0.3)) == pytest.approx(3.0)

    def test_constructive_soundness_random(self):
        # building R by the defining formula must always pass and re-extract mu
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            p = g.conj().T @ g
            q = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            lam = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            mu_true = complex(rng.standard_normal(), rng.standard_normal())
            r = q.conj().T + p @ (lam.conj().T - lam) + mu_true * np.eye(n)
            cs = make_set(n, P=cf.constant(p), Q=cf.constant(q), R=cf.constant(r))
            rep = gauge_report(cs, cf.constant(lam), 11)
            assert rep.condition("scalar_shift").passed
            for t in grid(cs, 11).points:
                assert abs(complex(rep.extracted_mu.eval(float(t))) - mu_true) <= 1e-9


class TestSourceCondition:
    def test_identity_source(self):
        cs = make_set(2, S=cf.constant(np.eye(2)))
        rec = gauge_report(cs).condition("shifted_source_psd")
        assert rec.passed and rec.worst_value == pytest.approx(2.0)

    def test_negative_source(self):
        cs = make_set(2, S=cf.constant(-np.eye(2)))
        rec = gauge_report(cs).condition("shifted_source_psd")
        assert not rec.passed and rec.worst_value == pytest.approx(-2.0)

    def test_gauge_shift_example(self):
        # S = 2, L = 1, P = 1: S_L = 1, so S_L + S_L* = 2 >= 0
        cs = make_set(1, S=cf.constant([[2.0]]))
        rec = gauge_report(cs, cf.constant([[1.0]])).condition("shifted_source_psd")
        assert rec.passed and rec.worst_value == pytest.approx(2.0)


class TestGaugeCriterion:
    def test_tanh_family_holds(self):
        cs = make_set(1, S=cf.constant([[1.0]]))
        rep = check_gauge_criterion(cs, None, np.zeros((1, 1)), grid(cs))
        assert rep.holds and rep.criterion == "theorem3.1"

    def test_negative_source_fails_condition(self):
        cs = make_set(1, S=cf.constant([[-1.0]]))
        rep = check_gauge_criterion(cs, None, np.zeros((1, 1)), grid(cs))
        assert not rep.holds
        failed = rep.failed_conditions()
        assert [r.name for r in failed] == ["shifted_source_psd"]
        assert failed[0].worst_value == pytest.approx(-2.0)

    def test_bad_initial_value_fails_clause(self):
        cs = make_set(1, S=cf.constant([[1.0]]))
        rep = check_gauge_criterion(cs, None, np.array([[-1.0]]), grid(cs))
        assert not rep.holds
        assert [r.name for r in rep.failed_conditions()] == ["initial_lower_bound"]
        assert rep.condition("initial_lower_bound").worst_value == pytest.approx(-2.0)

    def test_imaginary_shift_gets_warning_note(self):
        # R = iI satisfies the conditions with mu = i, but solutions rotate;
        # the report must carry the real-shift caveat.
        cs = make_set(1, P=cf.constant([[0.0]]), R=cf.constant([[1j]]))
        rep = check_gauge_criterion(cs, None, np.array([[1.0]]), grid(cs))
        assert rep.holds
        assert any("imaginary part" in note for note in rep.notes)

    def test_scale_covariance_of_verdicts(self):
        # scaling (P, Q, R, S, mu) by c > 0 with a constant gauge leaves
        # every boolean verdict unchanged (tolerances are relative). The
        # instance meets theorem3.1 with the constant gauge L by
        # construction: P = A*A, R = Q* + P(L* - L) + mu I and
        # S = W/2 + L P L + Q L + L R with W >= 0, and Y0 = L + H0 with H0 >= 0.
        n = 3
        rng = np.random.default_rng(21)

        def draw(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        def gram():
            g = draw(n, n)
            return g @ adjoint(g) / np.linalg.norm(g) ** 2

        a, q, ell, mu = draw(2, n, n) / 2, draw(3, n, n) / 3, draw(1, n, n) / 5, rng.random(2)
        p = _poly_mul(adjoint(a), a)
        r = _poly_add(_poly_add(adjoint(q), _poly_mul(p, adjoint(ell) - ell)),
                      mu[:, None, None] * np.eye(n))
        s = _poly_add(_poly_add(gram()[None] / 2, _poly_mul(_poly_mul(ell, p), ell)),
                      _poly_add(_poly_mul(q, ell), _poly_mul(ell, r)))
        cs = CoefficientSet(n=n, t0=0.0, t_end=5.0, P=cf.polynomial(p), Q=cf.polynomial(q),
                            R=cf.polynomial(r), S=cf.polynomial(s))
        lam, y0 = cf.constant(ell[0]), ell[0] + gram()
        base = check_gauge_criterion(cs, lam, y0, grid(cs, 31))
        assert base.holds
        for c in (1e-3, 1e3):
            scaled = CoefficientSet(
                n=cs.n, t0=cs.t0, t_end=cs.t_end,
                P=cf.polynomial([c * x for x in cs.P.coefficients], t_ref=cs.t0),
                Q=cf.polynomial([c * x for x in cs.Q.coefficients], t_ref=cs.t0),
                R=cf.polynomial([c * x for x in cs.R.coefficients], t_ref=cs.t0),
                S=cf.polynomial([c * x for x in cs.S.coefficients], t_ref=cs.t0),
            )
            rep = check_gauge_criterion(scaled, lam, y0, grid(cs, 31))
            assert [r.passed for r in rep.conditions] == [r.passed for r in base.conditions]


class TestSkewGauge:
    def test_symmetric_pair_gives_zero_gauge(self):
        rng = np.random.default_rng(14)
        q = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        cs = make_set(2, Q=cf.constant(q), R=cf.constant(q.conj().T))
        lam0, rec = build_skew_gauge(cs, None, grid(cs))
        assert rec.passed
        assert np.linalg.norm(lam0.eval(0.5)) < 1e-12

    def test_rotation_drift_example(self):
        r = np.array([[0.0, 1.0], [-1.0, 0.0]])
        cs = make_set(2, R=cf.constant(r))
        lam0, rec = build_skew_gauge(cs, None, grid(cs))
        assert rec.passed
        assert_allclose(lam0.eval(0.2), np.array([[0.0, -0.5], [0.5, 0.0]]), atol=1e-12)

    def test_anisotropic_P_breaks_skewness(self):
        # L0 = -P^{-1} R / 2 = [[0, -1], [0.25, 0]] is not skew-Hermitian
        cs = make_set(2, P=cf.constant(np.diag([1.0, 2.0])),
                      R=cf.constant(np.array([[0.0, 2.0], [-1.0, 0.0]])))
        lam0, rec = build_skew_gauge(cs, None, grid(cs))
        assert not rec.passed
        assert_allclose(lam0.eval(0.4), np.array([[0.0, -1.0], [0.25, 0.0]]), atol=1e-12)
        gap = lam0.eval(0.4) + lam0.eval(0.4).conj().T
        assert_allclose(gap, np.array([[0.0, -0.75], [-0.75, 0.0]]), atol=1e-12)
        assert rec.worst_value == pytest.approx(np.linalg.norm(gap), abs=1e-12)

    def test_skew_gauge_cancels_in_bound(self):
        # whenever skewness passes, L0 + L0* is the zero matrix up to tolerance
        r = np.array([[0.0, 1.0], [-1.0, 0.0]])
        cs = make_set(2, R=cf.constant(r))
        lam0, rec = build_skew_gauge(cs, None, grid(cs))
        assert rec.passed
        for t in grid(cs).points:
            v = lam0.eval(float(t))
            assert np.linalg.norm(v + v.conj().T) <= 1e-12

    def test_requires_positive_definite_P(self):
        cs = make_set(2, P=cf.constant(np.diag([1.0, 0.0])))
        with pytest.raises(NotPositiveDefiniteError):
            build_skew_gauge(cs, None, grid(cs))

    def test_full_criterion(self):
        r = np.array([[0.0, 1.0], [-1.0, 0.0]])
        cs = make_set(2, R=cf.constant(r), S=cf.constant(np.eye(2)))
        rep = check_skew_gauge_criterion(cs, None, np.zeros((2, 2)), grid(cs))
        assert rep.holds and rep.criterion == "cor3.1"

    def test_gauge_domain_follows_caller_tol(self):
        # P = 1e-10 is positive definite at tol = 1e-12 (but inside the
        # default 1e-9 band): the gauge L0 = 0 exists at every point
        cs = make_set(1, P=cf.constant([[1e-10]]), S=cf.constant([[1.0]]))
        rep = check_skew_gauge_criterion(cs, None, np.zeros((1, 1)), grid(cs), tol=1e-12)
        assert rep.holds
        assert rep.condition("gauge_skew").passed
        src = rep.condition("shifted_source_psd")
        assert src.worst_value == pytest.approx(2.0) and src.worst_time == 0.0
        frame = check_sqrt_frame_criterion(cs, None, np.zeros((1, 1)), grid(cs), tol=1e-12)
        assert frame.holds and frame.conditions[-1].name == "initial_psd"

        lam0, rec = build_skew_gauge(cs, None, grid(cs), tol=1e-12)
        assert rec.passed and lam0.eval(0.5)[0, 0] == 0.0
        with pytest.raises(NotPositiveDefiniteError):
            build_skew_gauge(cs, None, grid(cs))


class TestSqrtFrame:
    def test_skew_term_symmetric_pair(self):
        # Q = R makes the frame term nu/2 I
        rng = np.random.default_rng(15)
        q = rng.standard_normal((2, 2))
        q = q + q.T  # Hermitian so Q* - Q = 0
        cs = make_set(2, Q=cf.constant(q), R=cf.constant(q))
        nu = cf.constant(0.6 + 0.2j, scalar=True)
        t_term = frame_oracle.frame(cs, nu, 0.5)[0]
        assert_allclose(t_term, (0.6 + 0.2j) / 2 * np.eye(2), atol=1e-12)

    def test_identity_P_reduces_to_half_gap(self):
        rng = np.random.default_rng(16)
        q = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        r = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        cs = make_set(3, Q=cf.constant(q), R=cf.constant(r))
        assert_allclose(frame_oracle.frame(cs, None, 0.1)[0],
                        (q.conj().T - r) / 2, atol=1e-12)

    def test_anisotropic_frame_example(self):
        # P = diag(1, 4), R = [[0, 2], [-2, 0]]: T = [[0, -2], [0.5, 0]]
        cs = make_set(2, P=cf.constant(np.diag([1.0, 4.0])),
                      R=cf.constant(np.array([[0.0, 2.0], [-2.0, 0.0]])))
        assert_allclose(frame_oracle.frame(cs, None, 0.3)[0],
                        np.array([[0.0, -2.0], [0.5, 0.0]]), atol=1e-12)

    def test_criterion_identity_source_passes(self):
        cs = make_set(2, S=cf.constant(np.eye(2)))
        rep = check_sqrt_frame_criterion(cs, None, np.zeros((2, 2)), grid(cs))
        assert rep.holds and rep.criterion == "cor3.2"
        assert rep.conditions[-1].name == "initial_psd"
        assert rep.condition("sqrt_frame_psd").worst_value == pytest.approx(2.0)

    def test_rotation_without_source_fails(self):
        a = 0.8
        r = np.array([[0.0, a], [-a, 0.0]])
        cs = make_set(2, R=cf.constant(r))
        rep = check_sqrt_frame_criterion(cs, None, np.eye(2), grid(cs))
        assert not rep.holds
        assert rep.conditions[-1].name == "initial_psd" and rep.conditions[-1].passed
        # T = -R/2 is skew with T^2 = -(a^2/4) I: condition matrix is -a^2/2 I
        assert rep.condition("sqrt_frame_skew").passed
        assert rep.condition("sqrt_frame_psd").worst_value == pytest.approx(-a * a / 2)

    def test_rotation_with_boundary_source_passes(self):
        a = 0.8
        r = np.array([[0.0, a], [-a, 0.0]])
        cs = make_set(2, R=cf.constant(r), S=cf.constant(a * a / 4 * np.eye(2)))
        rep = check_sqrt_frame_criterion(cs, None, np.eye(2), grid(cs))
        assert rep.holds and rep.conditions[-1].name == "initial_psd"
        assert abs(rep.condition("sqrt_frame_psd").worst_value) <= 1e-12


class TestSqrtFrameFactors:
    def test_identity_P(self):
        rng = np.random.default_rng(17)
        q = rng.standard_normal((2, 2))
        r = rng.standard_normal((2, 2))
        cs = make_set(2, Q=cf.constant(q), R=cf.constant(r))
        f, l = frame_oracle.factors(cs, 0.5)
        assert_allclose(f, q, atol=1e-12)
        assert_allclose(l, r, atol=1e-12)

    def test_constant_scalar(self):
        cs = make_set(1, P=cf.constant([[4.0]]), Q=cf.constant([[1.0]]),
                      R=cf.constant([[2.0]]))
        f, l = frame_oracle.factors(cs, 0.5)
        assert f[0, 0] == pytest.approx(1.0)
        assert l[0, 0] == pytest.approx(2.0)

    def test_time_varying_sqrt(self):
        # P(t) = (1 + t)^2: sqrt(P) = 1 + t, sqrt(P)' = 1, so F = L = -1 at t = 0
        cs = make_set(1, P=cf.polynomial([[[1.0]], [[2.0]], [[1.0]]]),
                      S=cf.constant([[0.0]]))
        f, l = frame_oracle.factors(cs, 0.0)
        assert f[0, 0] == pytest.approx(-1.0)
        assert l[0, 0] == pytest.approx(-1.0)

    def test_defining_equations(self):
        # F sqrt(P) = sqrt(P) Q - sqrt(P)' and sqrt(P) L = R sqrt(P) - sqrt(P)'
        rng = np.random.default_rng(18)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        p0 = g.conj().T @ g + np.eye(3)
        p1 = np.eye(3) * 0.3
        q = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        r = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        cs = make_set(3, P=cf.polynomial([p0, p1]), Q=cf.constant(q), R=cf.constant(r))
        t = 0.4
        f, l = frame_oracle.factors(cs, t)
        sp = _hermitian_sqrt(cs.P.eval(t), "test")
        spdot = frame_oracle.sqrt_derivative(cs.P.eval(t), cs.P.derivative(t))
        assert_allclose(f @ sp, sp @ q - spdot, atol=1e-10)
        assert_allclose(sp @ l, r @ sp - spdot, atol=1e-10)


class TestSourceTermWork:
    def test_one_sqrt_per_scan_block_and_one_at_t0(self, monkeypatch):
        # cor3.2 takes sqrt(P) once over the stacked grid and once for the
        # initial clause, not once per point
        cs, _, _, _ = gen_satisfying(InstanceSpec(n=3, seed=3))
        shapes = []

        def counting(p, context):
            shapes.append(p.shape)
            return _hermitian_sqrt(p, context)

        monkeypatch.setattr(criteria, "_hermitian_sqrt", counting)
        report = check_sqrt_frame_criterion(cs, None, np.eye(3), GridSpec.for_set(cs, 11))
        assert report.condition("coefficient_pd").passed
        assert shapes == [(11, 3, 3), (3, 3)]


def _skew_frame_instance(rng, n):
    """Constant data with an exactly skew frame term: R := Q* - sqrt(P)(2K - nu I)sqrt(P)^{-1}."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    p = g.conj().T @ g + np.eye(n)
    q = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = (g2 - g2.conj().T) / 2
    nu = complex(rng.standard_normal(), rng.standard_normal())
    sp = _hermitian_sqrt(p, "test")
    r = q.conj().T - sp @ (2 * k - nu * np.eye(n)) @ np.linalg.inv(sp)
    g3 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    s = g3  # arbitrary source
    cs = make_set(n, P=cf.constant(p), Q=cf.constant(q), R=cf.constant(r),
                  S=cf.constant(s))
    return cs, cf.constant(nu, scalar=True), k


class TestSourceTermIdentity:
    def test_zero_instance(self):
        cs = make_set(2)
        d = frame_oracle.source_term(cs, None, 0.5)
        assert_allclose(d, np.zeros((2, 2)), atol=1e-12)

    def test_pure_source(self):
        cs = make_set(2, S=cf.constant(np.eye(2)))
        d = frame_oracle.source_term(cs, None, 0.5)
        assert_allclose(d, -np.eye(2), atol=1e-12)

    def test_hermitian_part_identity_random(self):
        # D + D* must equal -(condition matrix) for skew frame terms;
        # the two sides follow independent code paths.
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            cs, nu, k = _skew_frame_instance(rng, n)
            t = 0.5
            t_term, c = frame_oracle.frame(cs, nu, t)
            assert_allclose(t_term, k, atol=1e-10)
            d = frame_oracle.source_term(cs, nu, t)
            lhs = d + d.conj().T
            rhs = -c
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * (1 + np.linalg.norm(rhs))


class TestExactFrameDerivative:
    """T' in the source term is exact, also at the domain ends."""

    @staticmethod
    def closed_form(t, s):
        # n = 1, P = (1 + t)^2, Q = t^3, R = 0, S = s: sqrt(P) = 1 + t and
        # sqrt(P)' = 1, so T = t^3 / 2, T' = 3 t^2 / 2, F = t^3 - 1/(1 + t),
        # L = -1/(1 + t), and D = T' + T^2 + F T + T L - (1 + t) s (1 + t)
        tt = t ** 3 / 2
        f, l = t ** 3 - 1 / (1 + t), -1 / (1 + t)
        return 1.5 * t ** 2 + tt * tt + f * tt + tt * l - (1 + t) ** 2 * s

    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_scalar_polynomial_matches_closed_form(self, t):
        cs = make_set(1, P=cf.polynomial([[[1.0]], [[2.0]], [[1.0]]]),
                      Q=cf.polynomial([[[0.0]], [[0.0]], [[0.0]], [[1.0]]]),
                      S=cf.constant([[2.0]]))
        d = frame_oracle.source_term(cs, None, t)
        assert abs(d[0, 0] - self.closed_form(t, 2.0)) <= 1e-12

    def test_time_varying_nu_enters_through_its_derivative(self):
        # nu = 4t adds nu/2 = 2t to T and nu'/2 = 2 to T'
        cs = make_set(1, S=cf.constant([[0.0]]))
        nu = cf.polynomial([0.0, 4.0], scalar=True)
        t = 0.25
        tt = 2 * t
        d = frame_oracle.source_term(cs, nu, t)
        assert abs(d[0, 0] - (2.0 + tt * tt)) <= 1e-12


class TestComparisonHypotheses:
    def test_symmetric_pair_passes(self):
        cs = make_set(1, S=cf.constant([[1.0]]))
        rep = check_comparison_hypotheses(cs, np.zeros((1, 1)), grid(cs))
        assert rep.holds and rep.criterion == "theorem1.1"

    def test_asymmetric_pair_fails(self):
        cs = make_set(2, Q=cf.constant(np.zeros((2, 2))),
                      R=cf.constant(np.array([[0.0, 1.0], [0.0, 0.0]])))
        rep = check_comparison_hypotheses(cs, np.zeros((2, 2)), grid(cs))
        assert not rep.holds
        assert "symmetric_pair" in [r.name for r in rep.failed_conditions()]

    def test_negative_source_fails(self):
        cs = make_set(1, S=cf.constant([[-0.5]]))
        rep = check_comparison_hypotheses(cs, np.zeros((1, 1)), grid(cs))
        assert [r.name for r in rep.failed_conditions()] == ["source_psd"]

    def test_initial_clause_follows_caller_tol(self):
        # a 1e-6 Hermiticity defect in Y0 is within tol = 1e-3, as on the grid
        cs, y0 = gen_comparison(InstanceSpec(n=2, seed=3, target="comparison"))
        y0 = y0.astype(complex)
        y0[0, 1] += 1e-6
        init = check_comparison_hypotheses(cs, y0, grid(cs), tol=1e-3).conditions[-1]
        assert init.name == "initial_psd"
        assert init.passed
        assert init.worst_value == pytest.approx(0.216, abs=1e-3)
        assert not check_comparison_hypotheses(cs, y0, grid(cs)).conditions[-1].passed


class TestDispatch:
    def test_run_criterion_names(self):
        cs = make_set(1, S=cf.constant([[1.0]]))
        y0 = np.zeros((1, 1))
        for name in ("theorem3.1", "cor3.1", "cor3.2", "theorem1.1"):
            rep = run_criterion(name, cs, y0)
            assert rep.criterion == name
            assert rep.holds

    def test_unknown_name(self):
        cs = make_set(1)
        with pytest.raises(ValueError):
            run_criterion("theorem9.9", cs, np.zeros((1, 1)))

    def test_report_serializes(self):
        import json

        cs = make_set(1, S=cf.constant([[1.0]]))
        rep = run_criterion("theorem3.1", cs, np.zeros((1, 1)))
        blob = json.dumps(rep.to_dict())
        assert "conditions" in blob and "theorem3.1" in blob


class TestOnePassPerCriterion:
    """Each criterion is one scan whose block evaluates every coefficient,
    gauge and derivative it needs once."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """The n=2 satisfying instance (seed 3) on a one-block grid, counting
        the calls of ``criteria._scan`` and, per call of a grid evaluator,
        each value and derivative (primed) of P, Q, R, S, L and mu (also
        passed as nu) that it gives."""
        cs, lam, mu, y0 = gen_satisfying(InstanceSpec(n=2, seed=3))
        g = grid(cs)
        assert len(block_slices(g.num_points, cs.n)) == 1
        named = {"P": cs.P, "Q": cs.Q, "R": cs.R, "S": cs.S, "L": lam, "mu": mu}
        assert len({id(f) for f in named.values()}) == len(named)
        names = {id(f): name for name, f in named.items()}
        calls: dict = {}

        def count(keys):
            for key in keys:
                calls[key] = calls.get(key, 0) + 1

        def counting_scan(*args, **kwargs):
            count(["_scan"])
            return scan(*args, **kwargs)

        def counting_evaluator(functions, derivatives=()):
            keys = ([names.get(id(f), "other") for f in functions]
                    + [names.get(id(f), "other") + "'" for f in derivatives])
            values = evaluator(functions, derivatives)
            counted_values = lambda ts: count(keys) or values(ts)
            counted_values.constant = values.constant
            return counted_values

        scan, evaluator = criteria._scan, cf.stacked_evaluator
        monkeypatch.setattr(criteria, "_scan", counting_scan)
        monkeypatch.setattr(cf, "stacked_evaluator", counting_evaluator)
        return cs, lam, mu, y0, g, calls

    @pytest.mark.parametrize("name, grid_functions", [
        ("theorem3.1", {"P", "Q", "R", "S", "L", "L'"}),
        ("cor3.1", {"P", "Q", "R", "S", "mu", "P'", "Q'", "R'", "mu'"}),
        ("cor3.2", {"P", "Q", "R", "S", "mu"}),
        ("theorem1.1", {"P", "Q", "R", "S"}),
    ])
    def test_one_scan_one_evaluation_per_block(self, counted, name, grid_functions):
        cs, lam, mu, y0, g, calls = counted
        run_criterion(name, cs, y0, lam=lam, mu=mu, nu=mu, grid=g)
        assert calls == dict.fromkeys(grid_functions | {"_scan"}, 1)


class TestInitialValueRefusedFirst:
    """Every checker refuses a malformed Y0 before it scans."""

    @pytest.fixture
    def scans(self, monkeypatch):
        """The calls of ``criteria._scan``, one entry each."""
        calls = []
        scan = criteria._scan
        monkeypatch.setattr(criteria, "_scan", lambda *a, **kw: calls.append(1) or scan(*a, **kw))
        return calls

    @pytest.mark.parametrize("name", criteria.CRITERION_NAMES)
    def test_wrong_dimension_is_refused_before_any_scan(self, scans, name):
        cs = make_set(2, S=cf.constant(np.eye(2)))
        with pytest.raises(DimensionError, match="^Y0 has dimension 3, expected 2$"):
            run_criterion(name, cs, np.eye(3), grid=grid(cs))
        assert scans == []

    @pytest.mark.parametrize("y0, error, message", [
        # no criterion reads None as "skip the initial clause"
        (None, ValueError, r"^Y0 contains non-finite entries$"),
        (np.ones((2, 3)), DimensionError, r"^Y0 must be square; got shape \(2, 3\)$"),
        (np.array([[1.0, np.nan], [0.0, 1.0]]), ValueError, r"^Y0 contains non-finite entries$"),
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), ValueError, r"^Y0 contains non-finite entries$"),
    ], ids=["none", "not_square", "nan", "inf"])
    @pytest.mark.parametrize("name", criteria.CRITERION_NAMES)
    def test_malformed_y0_is_refused_before_any_scan(self, scans, name, y0, error, message):
        cs = make_set(2, S=cf.constant(np.eye(2)))
        with pytest.raises(error, match=message):
            run_criterion(name, cs, y0, grid=grid(cs))
        assert scans == []


class TestInitialClauseClosesEveryReport:
    """Each checker's report ends with its initial-clause record, judged at t0."""

    CLAUSES = {"theorem3.1": "initial_lower_bound", "cor3.1": "initial_psd",
               "cor3.2": "initial_psd", "theorem1.1": "initial_psd"}

    @pytest.mark.parametrize("name", criteria.CRITERION_NAMES)
    def test_last_record_is_the_initial_clause(self, name):
        cs, lam, mu, y0 = gen_satisfying(InstanceSpec(n=2, seed=3, t0=0.25))
        g = grid(cs)
        good = run_criterion(name, cs, y0, lam=lam, mu=mu, nu=mu, grid=g)
        bad = run_criterion(name, cs, -10.0 * np.eye(2), lam=lam, mu=mu, nu=mu, grid=g)
        for rep in (good, bad):
            last = rep.conditions[-1]
            assert last.name == self.CLAUSES[name] and last.worst_time == 0.25
            assert [c.name for c in rep.conditions].count(last.name) == 1
        assert good.conditions[:-1] == bad.conditions[:-1]
        assert not bad.conditions[-1].passed and not bad.holds


class TestFrameWitnessWherePIsNowherePositive:
    """With P = 0 the frame conditions of cor3.1 and cor3.2 leave out every
    grid point: the skew condition fails with no witness, (inf, inf), and
    not with a defect of 0.0 at t0 that reads as a pass."""

    @pytest.mark.parametrize("criterion, skew", [("cor3.1", "gauge_skew"),
                                                 ("cor3.2", "sqrt_frame_skew")])
    def test_skew_condition_has_no_witness(self, criterion, skew):
        cs = make_set(1, P=cf.constant([[0.0]]), S=cf.constant([[1.0]]))
        rep = criteria.run_criterion(criterion, cs, np.eye(1), grid=grid(cs))
        rec = next(c for c in rep.conditions if c.name == skew)
        assert not rec.passed and not rep.holds
        assert rec.worst_value == math.inf and rec.worst_time == math.inf


class TestShiftsThatAreNotFinite:
    """A scalar shift that is not finite on the grid is left out of the
    report with a note, and computing its notes warns nothing."""

    def test_extracted_mu_is_none_where_R_overflows(self):
        cs = make_set(1, t_end=5.0, R=cf.polynomial([[[0.0]], [[0.0]], [[1e307]]]))
        rep = gauge_report(cs)
        rec = rep.condition("scalar_shift")
        assert rep.extracted_mu is None and not rec.passed
        assert math.isnan(rec.worst_value) and math.isfinite(rec.worst_time)

    @pytest.mark.parametrize("coefficient", [1e307, 1e307j])
    def test_supplied_nu_that_overflows_is_left_out(self, coefficient):
        cs = make_set(1, t_end=5.0, S=cf.constant(np.eye(1)))
        nu = cf.polynomial([0.0, 0.0, coefficient], scalar=True)
        rep = check_sqrt_frame_criterion(cs, nu, np.eye(1), grid(cs))
        assert rep.extracted_nu is None and not rep.holds
        assert "extracted_nu left out: not finite on the grid" in rep.notes
        assert "extracted_nu" not in rep.to_dict()
