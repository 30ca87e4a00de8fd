import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from riccati_cert import coefficients as cf
from riccati_cert import matrix_core as mc
from riccati_cert.cli import main
from riccati_cert.exceptions import (
    DimensionError,
    NotHermitianError,
    NotPositiveDefiniteError,
)
from riccati_cert.serialize import dumps_instance, instance_to_obj


def _rand(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestHermitianPart:
    def test_hermitian_fixed_point(self):
        assert_allclose(mc.hermitian_part(np.eye(2)), np.eye(2))

    def test_forced_arithmetic(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert_allclose(mc.hermitian_part(m), np.array([[0.0, 0.5], [0.5, 0.0]]))

    def test_skew_annihilation(self):
        rng = np.random.default_rng(1)
        g = _rand(rng, 3)
        k = g - g.conj().T  # K* = -K
        assert_allclose(mc.hermitian_part(k), np.zeros((3, 3)), atol=1e-15)

    def test_split_remainder_is_skew(self):
        rng = np.random.default_rng(2)
        m = _rand(rng, 4)
        h = mc.hermitian_part(m)
        k = m - h
        assert_allclose(h, h.conj().T, atol=1e-15)
        assert_allclose(k, -k.conj().T, atol=1e-15)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            mc.hermitian_part(np.ones((2, 3)))


class TestCheckPsd:
    def test_identity(self):
        v = mc.check_psd(np.eye(2))
        assert v.is_psd and v.min_eigenvalue == pytest.approx(1.0)

    def test_indefinite_diag(self):
        v = mc.check_psd(np.diag([1.0, -1.0]))
        assert not v.is_psd
        assert v.min_eigenvalue == pytest.approx(-1.0)

    def test_2x2_characteristic_polynomial_oracle(self):
        # eigenvalues of [[2,1],[1,2]] from l^2 - 4l + 3 = 0: {1, 3}
        lo = (4 - math.sqrt(16 - 12)) / 2
        v = mc.check_psd(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert v.is_psd
        assert v.min_eigenvalue == pytest.approx(lo, abs=1e-12)

    def test_hermiticity_defect_blocks_verdict(self):
        # Hermitian part is PSD but the asymmetry itself must fail the verdict
        m = np.array([[1.0, 1.0], [0.0, 1.0]])
        v = mc.check_psd(m)
        assert v.hermiticity_defect == pytest.approx(math.sqrt(2), abs=1e-12)
        assert v.min_eigenvalue == pytest.approx(0.5, abs=1e-12)
        assert not v.is_psd

    def test_tolerance_band_accepts_roundoff(self):
        v = mc.check_psd(np.diag([1.0, -1e-12]))
        assert v.is_psd


class TestTraceProduct:
    def test_identity(self):
        assert mc.trace_product(np.eye(3), np.eye(3)) == pytest.approx(3.0)

    def test_diag(self):
        assert mc.trace_product(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])) == pytest.approx(11.0)

    def test_dense_product_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b = _rand(rng, 4), _rand(rng, 4)
            expected = np.trace(a @ b)
            got = mc.trace_product(a, b)
            assert abs(got - expected) <= 1e-12 * (1 + abs(expected))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            mc.trace_product(np.eye(2), np.eye(3))


class TestPrincipalSqrt:
    def test_identity(self):
        assert_allclose(mc.principal_sqrt(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diag(self):
        assert_allclose(mc.principal_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]),
                        atol=1e-14)

    def test_2x2_eigendecomposition_oracle(self):
        # [[2,1],[1,2]] has eigenpairs (1, [1,-1]/sqrt2), (3, [1,1]/sqrt2);
        # the square root is [[(s3+1)/2, (s3-1)/2], [(s3-1)/2, (s3+1)/2]].
        s3 = math.sqrt(3.0)
        expected = np.array([[(s3 + 1) / 2, (s3 - 1) / 2], [(s3 - 1) / 2, (s3 + 1) / 2]])
        got = mc.principal_sqrt(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert_allclose(got, expected, atol=1e-12)

    def test_round_trip_random_pd(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            g = _rand(rng, n)
            p = g.conj().T @ g + np.eye(n)
            s = mc.principal_sqrt(p)
            assert np.linalg.norm(s @ s - p) <= 1e-10 * np.linalg.norm(p)
            assert_allclose(s, s.conj().T, atol=1e-13)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            mc.principal_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_indefinite_and_reports_witness(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            mc.principal_sqrt(np.diag([1.0, -2.0]))
        assert exc.value.min_eigenvalue == pytest.approx(-2.0)


class TestSqrtDerivative:
    def test_zero_rate(self):
        rng = np.random.default_rng(5)
        g = _rand(rng, 3)
        p = g.conj().T @ g + np.eye(3)
        assert_allclose(mc.sqrt_derivative(p, np.zeros((3, 3))), np.zeros((3, 3)),
                        atol=1e-14)

    def test_scalar_chain_rule(self):
        # d/dt sqrt(p) = p' / (2 sqrt(p)) = 4 / (2 * 2) = 1
        assert_allclose(mc.sqrt_derivative(np.array([[4.0]]), np.array([[4.0]])),
                        np.array([[1.0]]), atol=1e-14)

    def test_diagonal_componentwise_oracle(self):
        got = mc.sqrt_derivative(np.diag([1.0, 4.0]), np.diag([2.0, 4.0]))
        assert_allclose(got, np.diag([2.0 / 2.0, 4.0 / 4.0]), atol=1e-13)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            mc.sqrt_derivative(np.diag([1.0, 0.0]), np.eye(2))

    def test_matches_finite_differences_at_second_order(self):
        # P(t) = B(t)* B(t) + I with B linear in t; halving the step must
        # shrink the central-difference discrepancy by >= 3.5x.
        rng = np.random.default_rng(6)
        b0, b1 = _rand(rng, 3), _rand(rng, 3)

        def p_at(t):
            b = b0 + t * b1
            return b.conj().T @ b + np.eye(3)

        t = 0.4
        pdot = (b0 + t * b1).conj().T @ b1 + b1.conj().T @ (b0 + t * b1)
        x = mc.sqrt_derivative(p_at(t), pdot)

        def fd_error(h):
            fd = (mc.principal_sqrt(p_at(t + h)) - mc.principal_sqrt(p_at(t - h))) / (2 * h)
            return np.linalg.norm(fd - x)

        assert fd_error(1e-3) / fd_error(5e-4) >= 3.5


class TestTraceLemmas:
    """Trace and congruence identities on seeded random matrices."""

    def test_commutation(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            a, b = _rand(rng, n), _rand(rng, n)
            lhs, rhs = mc.trace_product(a, b), mc.trace_product(b, a)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))

    def test_psd_pair_product_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            h1 = (lambda g: g.conj().T @ g)(_rand(rng, n))
            h2 = (lambda g: g.conj().T @ g)(_rand(rng, n))
            tr = mc.trace_product(h1, h2)
            scale = np.linalg.norm(h1) * np.linalg.norm(h2)
            assert tr.real >= -1e-10
            assert abs(tr.imag) <= 1e-10 * scale

    def test_hermitian_skew_product_real_part_vanishes(self):
        # Only the real part vanishes over the complex field: for example
        # H = diag(1, 2), K = diag(i, -i) gives tr(HK) = -i.
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            h = mc.hermitian_part(_rand(rng, n))
            g = _rand(rng, n)
            k = (g - g.conj().T) / 2
            tr = mc.trace_product(h, k)
            assert abs(tr.real) <= 1e-12 * np.linalg.norm(h) * np.linalg.norm(k)

    def test_hermitian_skew_complex_trace_need_not_vanish(self):
        tr = mc.trace_product(np.diag([1.0, 2.0]), np.diag([1j, -1j]))
        assert tr == pytest.approx(-1j)

    def test_congruence_preserves_psd(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            h = (lambda g: g.conj().T @ g)(_rand(rng, n))
            v = _rand(rng, n)
            m = v @ h @ v.conj().T
            norm2 = np.linalg.norm(mc.hermitian_part(m), 2)
            v = mc.check_psd(m)
            assert v.is_psd and v.min_eigenvalue >= -1e-9 * max(norm2, 1.0)


class TestSharedMeasures:
    """check_psd and _require_hpd apply the stacked measures of the grid scans."""

    def test_default_check_psd_is_the_stacked_measure(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            h = mc.hermitian_part(_rand(rng, n))
            # shift the least eigenvalue to the edge of the band, either side
            h -= (np.linalg.eigvalsh(h)[0] + rng.choice([-2e-9, 0.0, 2e-9])) * np.eye(n)
            lo, ok, defect = mc._psd_measure(h[None], mc.DEFAULT_TOL)
            v = mc.check_psd(h)
            assert v.is_psd == bool(ok[0])
            assert v.min_eigenvalue == lo[0] and v.hermiticity_defect == defect[0]

    def test_positive_definiteness_uses_the_strict_band(self):
        for eps, pd in ((3e-9, True), (1e-9, False), (0.0, False)):
            p = np.diag([1.0, eps])
            assert bool(mc._psd_measure(p[None], 1e-9, strict=True)[1][0]) is pd
            if pd:
                mc.principal_sqrt(p)
            else:
                with pytest.raises(NotPositiveDefiniteError):
                    mc.principal_sqrt(p)

    @pytest.mark.parametrize("n", [4, 8])
    def test_sqrt_refusal_is_the_grid_verdict_at_the_band_edge(self, n):
        # eigvalsh and eigh differ in the last bits for n >= 4; one verdict serves both
        refused = set()
        for p in _band_edge_draws(n, 300):
            lo, pd, _ = mc._psd_measure(p[None], mc.DEFAULT_TOL, strict=True)
            for name, call in (("principal_sqrt", lambda: mc.principal_sqrt(p)),
                               ("sqrt_derivative", lambda: mc.sqrt_derivative(p, np.eye(n)))):
                if pd[0]:
                    call()
                else:
                    with pytest.raises(NotPositiveDefiniteError) as err:
                        call()
                    assert err.value.min_eigenvalue == lo[0]
                    refused.add(name)
        assert refused == {"principal_sqrt", "sqrt_derivative"}

    def test_cor32_runs_where_its_grid_calls_p_positive_definite(self, tmp_path, capsys):
        # draw 182 at n = 4: eigvalsh's least eigenvalue 4.00000009e-09 clears
        # the band 4e-09, eigh's 3.99999996e-09 does not
        p = list(_band_edge_draws(4, 183))[-1]
        lo, pd, _ = mc._psd_measure(p[None], mc.DEFAULT_TOL, strict=True)
        assert pd[0]
        cs = cf.CoefficientSet(n=4, t0=0.0, t_end=1.0, P=cf.constant(p),
                               Q=cf.constant(np.zeros((4, 4))), R=cf.constant(np.zeros((4, 4))),
                               S=cf.constant(np.eye(4)))
        path = tmp_path / "edge.json"
        path.write_text(dumps_instance(instance_to_obj(cs, np.eye(4))))
        for criterion in ("cor3.2", "cor3.1", "theorem3.1"):
            assert main(["check", str(path), "--criterion", criterion]) == 0
            out, err = capsys.readouterr()
            report = json.loads(out, parse_constant=lambda c: pytest.fail(f"JSON constant {c}"))
            assert err == "" and report["holds"]
            assert report["conditions"][0]["worst_value"] == lo[0]


def _band_edge_draws(n, count):
    """Seeded Hermitian P = U diag(b (1 + e), 1, ..., n - 1) U*, U unitary, with
    b = DEFAULT_TOL n the strict band of P and e uniform in (-1e-6, 1e-6): the
    least eigenvalue lies within rounding of the band edge."""
    rng = np.random.default_rng(0)
    for _ in range(count):
        q = np.linalg.qr(_rand(rng, n))[0]
        w = np.array([mc.DEFAULT_TOL * n * (1 + rng.uniform(-1e-6, 1e-6)), *range(1, n)])
        yield (q * w) @ q.conj().T


class TestNonFiniteRule:
    """No point passes a measure on inf <= inf: a matrix with an entry or an
    eigenvalue that is not finite has NaN eigenvalues, a residual norm that is
    not finite fails, and neither warns (the suite turns warnings into errors)."""

    SKEW_HUGE = np.array([[1e160, 1e160], [-1e160, 1e160]], dtype=complex)

    def scan(self, measure, *stacks):
        """``measure`` on stacks of one point each, in a scan's error state."""
        return mc._scan(np.zeros(len(stacks[0])), stacks[0].shape[-1],
                        lambda _, *blocks: measure(*blocks), *stacks)

    def test_huge_skew_part_is_not_hermitian(self):
        p = self.SKEW_HUGE[None]
        norm, _, ok = self.scan(lambda m: mc._defect_measure(m - mc.adjoint(m), m, 1e-9), p)
        assert norm[0] == np.inf and not ok[0]
        assert not self.scan(lambda m: mc._psd_measure(m, 1e-9), p)[1][0]

    def test_huge_hermitian_matrix_still_passes(self):
        # the residual is exactly 0 while ||M||_F overflows
        h = np.array([[[1e160, 1e160], [1e160, 1e160]]], dtype=complex)
        norm, _, ok = self.scan(lambda m: mc._defect_measure(m - mc.adjoint(m), m, 1e-9), h)
        assert norm[0] == 0.0 and ok[0]

    @pytest.mark.parametrize("r", [2.5e302, np.inf])
    def test_overflowing_symmetric_pair_fails(self, r):
        # R = 1e307 t^2 against Q = 0: ||R - Q*||_F overflows, then R itself
        rs = np.array([[[r]]], dtype=complex)
        assert not self.scan(lambda m: mc._defect_measure(m, m, 1e-9), rs)[2][0]

    def test_overflowing_shift_residual_fails(self):
        # M = diag(-2e300, 0), mu_hat = -1e300: ||M - mu_hat I||_F overflows
        m = np.diag([-2e300, 0.0]).astype(complex)[None]
        resid = m + 1e300 * np.eye(2)
        assert not self.scan(lambda a, b: mc._defect_measure(a, b, 1e-9), resid, m)[2][0]

    @pytest.mark.parametrize("m, tol, hermitian", [
        ([[1e160, 1e160], [1e160, 1e160]], 0.0, True),
        ([[1e160, 1e160 + 1e150], [1e160, 1e160]], 1e-160, False),
    ], ids=["zero-residual-at-tol-0", "nonzero-residual-at-a-tiny-tol"])
    def test_an_overflowed_norm_counts_as_the_largest_double(self, m, tol, hermitian):
        # tol * inf would read NaN at tol 0 and pass any finite residual otherwise
        m = np.array([m], dtype=complex)
        ok = self.scan(lambda a: mc._defect_measure(a - mc.adjoint(a), a, tol), m)[2]
        assert bool(ok[0]) is hermitian

    def test_nan_and_inf_matrices_get_nan_rows(self):
        h = np.stack([np.eye(2), [[np.nan, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, np.inf]],
                      [[1.7e308, 1.7e308], [1.7e308, -1e300]]]).astype(complex)
        eigs = self.scan(lambda m: (mc._hermitian_eigvals("test", m),), h)[0]
        assert_allclose(eigs[0], [1.0, 1.0])
        assert np.isnan(eigs[1:]).all()

    def test_matrix_with_an_infinite_eigenvalue_gets_a_nan_row(self):
        # finite Hermitian part; eigenvalues about -5.9e307, 0 and inf
        a = 8e307
        h = np.array([[[a, a, a], [a, a, a], [a, a, 0.0]]], dtype=complex)
        assert np.isnan(self.scan(lambda m: (mc._hermitian_eigvals("test", m),), h)[0]).all()

    def test_psd_measure_fails_nan_source(self):
        # S_L of the probe: I - inf - inf + inf, NaN on the diagonal
        s_l = np.array([[[np.nan, 0.0], [0.0, 1.0]]], dtype=complex)
        lo, ok, _ = self.scan(lambda m: mc._psd_measure(m, 1e-9), s_l)
        assert np.isnan(lo[0]) and not ok[0]

    @pytest.mark.parametrize("h", [
        [[8e307, 8e307, 8e307], [8e307, 8e307, 8e307], [8e307, 8e307, 0.0]],
        [[1.7e308, 1.7e308], [1.7e308, -1e300]]], ids=["infinite-eigenvalue", "overflowing-sum"])
    def test_check_psd_is_not_passed_on_an_infinite_band(self, h):
        # both have a least eigenvalue near -1e308 beside one that overflows
        verdict = mc.check_psd(np.array(h))
        assert not verdict.is_psd and math.isnan(verdict.min_eigenvalue)
