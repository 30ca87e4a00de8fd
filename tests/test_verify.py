import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from riccati_cert import coefficients as cf
from riccati_cert import matrix_core as mc
from riccati_cert import verify
from riccati_cert.coefficients import CoefficientSet
from riccati_cert.exceptions import DimensionError
from riccati_cert.instances import InstanceSpec, canonical_catalog, gen_comparison, gen_satisfying
from riccati_cert.integrate import (
    IntegratorOptions,
    Trajectory,
    integrate_linear_system,
    integrate_lyapunov_comparison,
    integrate_riccati_direct,
)
from riccati_cert.verify import (
    eigen_monitor,
    residual_check,
    residual_series,
    verify_hermitian_bound,
    verify_sandwich,
)

CAT = canonical_catalog()


def tanh_trajectory(t_end=3.0, num=61):
    e = CAT["tanh"]
    cs = CoefficientSet(n=1, t0=0.0, t_end=t_end, P=e.cs.P, Q=e.cs.Q, R=e.cs.R, S=e.cs.S)
    ts = np.linspace(0.0, t_end, num)
    return cs, integrate_riccati_direct(cs, e.y0, sample_times=ts)


def slope(cs, t, y):
    """F(t, Y) = S - Y P Y - Q Y - Y R at one sample."""
    p, q, r, s = (f.eval(float(t)) for f in (cs.P, cs.Q, cs.R, cs.S))
    return s - y @ p @ y - q @ y - y @ r


def hermite_slope(cs, ts, values, k):
    """The derivative at t_k of the cubic through samples a = clip(k - 1, 0,
    m - 3) and a + 2 with slopes F there, from its basis polynomials."""
    a = min(max(k - 1, 0), ts.size - 3)
    b, h = a + 2, ts[a + 2] - ts[a]
    s = (ts[k] - ts[a]) / h
    return (6 * s * (1 - s) * (values[b] - values[a]) / h
            + (3 * s - 1) * (s - 1) * slope(cs, ts[a], values[a])
            + s * (3 * s - 2) * slope(cs, ts[b], values[b]))


class TestHermitianBound:
    def test_tanh_touches_zero_at_start(self):
        _, traj = tanh_trajectory()
        rep = verify_hermitian_bound(traj, None, tol=1e-6)
        assert rep.passed
        assert rep.min_value == pytest.approx(0.0, abs=1e-12)
        assert rep.t_min == 0.0

    def test_zero_trajectory_boundary(self):
        traj = Trajectory(times=np.linspace(0, 1, 5),
                          values=np.zeros((5, 1, 1), dtype=complex),
                          status="completed", method="direct")
        rep = verify_hermitian_bound(traj)
        assert rep.passed and rep.min_value == 0.0

    def test_negative_tan_fails(self):
        # on [0, 1] the -tan solution reaches 2 * (-tan 1) ~ -3.1148
        e = CAT["tan_blowup"]
        cs = CoefficientSet(n=1, t0=0.0, t_end=1.0, P=e.cs.P, Q=e.cs.Q, R=e.cs.R, S=e.cs.S)
        ts = np.linspace(0.0, 1.0, 21)
        traj = integrate_riccati_direct(cs, e.y0, sample_times=ts)
        assert traj.status == "completed"
        rep = verify_hermitian_bound(traj, None, tol=1e-6)
        assert not rep.passed
        assert rep.min_value == pytest.approx(-2 * math.tan(1.0), abs=1e-6)
        assert rep.t_min == pytest.approx(1.0)

    def test_gauge_offset(self):
        # constant gauge shifts the required floor
        _, traj = tanh_trajectory()
        lam = cf.constant([[0.25]])
        rep = verify_hermitian_bound(traj, lam, tol=1e-6)
        assert not rep.passed  # 2 tanh(0) - 0.5 < 0 at t = 0
        assert rep.min_value == pytest.approx(-0.5, abs=1e-9)


class TestEigenMonitor:
    def test_tanh_series(self):
        _, traj = tanh_trajectory()
        lam_series = eigen_monitor(traj)
        expected = 2 * np.tanh(traj.times)
        assert np.max(np.abs(lam_series - expected)) <= 1e-8
        assert np.all(np.diff(lam_series) >= -1e-12)  # increasing from 0

    def test_zero_series(self):
        traj = Trajectory(times=np.linspace(0, 1, 4),
                          values=np.zeros((4, 2, 2), dtype=complex),
                          status="completed", method="direct")
        assert_allclose(eigen_monitor(traj), np.zeros(4))

    def test_block_decoupling(self):
        # diag(tanh, tanh) has least gap eigenvalue 2 tanh(t)
        cs = CoefficientSet(n=2, t0=0.0, t_end=2.0,
                            P=cf.constant(np.eye(2)), Q=cf.constant(np.zeros((2, 2))),
                            R=cf.constant(np.zeros((2, 2))), S=cf.constant(np.eye(2)))
        ts = np.linspace(0.0, 2.0, 21)
        traj = integrate_riccati_direct(cs, np.zeros((2, 2)), sample_times=ts)
        series = eigen_monitor(traj)
        assert np.max(np.abs(series - 2 * np.tanh(ts))) <= 1e-8

    @pytest.mark.parametrize("lam, match", [
        (cf.constant(0.5, scalar=True), "lambda must be matrix-valued"),
        (cf.constant(np.eye(2)), "lambda has dimension 2, expected 1"),
    ])
    def test_gauge_must_be_a_matrix_of_the_trajectory_dimension(self, lam, match):
        # the rule of CoefficientSet's own functions
        _, traj = tanh_trajectory()
        with pytest.raises(DimensionError, match=match):
            eigen_monitor(traj, lam)


    def test_blocks_match_per_sample_reference(self):
        # n = 32 puts 16 samples in a block, so 41 samples span three blocks
        rng = np.random.default_rng(23)
        n, ts = 32, np.linspace(0.0, 1.0, 41)
        values = rng.standard_normal((ts.size, n, n)) + 1j * rng.standard_normal((ts.size, n, n))
        traj = Trajectory(times=ts, values=values, status="completed", method="direct")
        g = rng.standard_normal((n, n))
        lam = cf.polynomial([g, g.T])
        cs = CoefficientSet(n=n, t0=0.0, t_end=1.0, P=cf.constant(g @ g.T),
                            Q=lam, R=cf.constant(g), S=lam)
        want_gap, want_resid = [], []
        for k, t in enumerate(ts):
            y, l = values[k], lam.eval(float(t))
            gap = y + y.conj().T - l - l.conj().T
            want_gap.append(np.linalg.eigvalsh((gap + gap.conj().T) / 2)[0])
            r = hermite_slope(cs, ts, values, k) - slope(cs, t, y)
            want_resid.append(np.linalg.norm(r) / (1.0 + np.linalg.norm(y) ** 2))
        assert eigen_monitor(traj, lam).tobytes() == np.array(want_gap).tobytes()
        assert_allclose(residual_series(traj, cs), want_resid, rtol=1e-12, atol=0)


class TestSandwich:
    def test_tanh_under_linear(self):
        cs = CAT["tanh"].cs
        ts = np.linspace(0.0, 3.0, 31)
        y = integrate_riccati_direct(cs, CAT["tanh"].y0, sample_times=ts)
        yt = integrate_lyapunov_comparison(cs, CAT["tanh"].y0, sample_times=ts)
        rep = verify_sandwich(y, yt, tol=1e-6)
        assert rep.passed
        assert rep.lower_min == pytest.approx(0.0, abs=1e-9)

    def test_equality_case_linear_instance(self):
        # P = 0 and R = Q* = 0 make the equation linear: Y == Ytilde
        cs = CAT["linear"].cs
        ts = np.linspace(0.0, 3.0, 31)
        y = integrate_riccati_direct(cs, CAT["linear"].y0, sample_times=ts)
        yt = integrate_lyapunov_comparison(cs, CAT["linear"].y0, sample_times=ts)
        rep = verify_sandwich(y, yt, tol=1e-6)
        assert rep.passed
        assert abs(rep.upper_min) <= 1e-9

    def test_comparison_instance_property(self):
        for seed in (1, 2, 3):
            cs, y0 = gen_comparison(InstanceSpec(n=3, seed=seed, target="comparison"))
            ts = np.linspace(cs.t0, cs.t_end, 51)
            y = integrate_riccati_direct(cs, y0, sample_times=ts)
            yt = integrate_lyapunov_comparison(cs, y0, sample_times=ts)
            assert verify_sandwich(y, yt, tol=1e-6).passed

    def test_grid_mismatch_rejected(self):
        cs = CAT["tanh"].cs
        y = integrate_riccati_direct(cs, CAT["tanh"].y0,
                                     sample_times=np.linspace(0, 3, 11))
        yt = integrate_lyapunov_comparison(cs, CAT["tanh"].y0,
                                           sample_times=np.linspace(0, 3, 13))
        with pytest.raises(ValueError):
            verify_sandwich(y, yt)


class TestResidual:
    def test_equilibrium_is_exact(self):
        # Y = 0 solves the equation with S = 0 exactly
        cs0 = CoefficientSet(n=2, t0=0.0, t_end=3.0,
                             P=cf.constant(np.eye(2)), Q=cf.constant(np.zeros((2, 2))),
                             R=cf.constant(np.zeros((2, 2))), S=cf.constant(np.zeros((2, 2))))
        traj = Trajectory(times=np.linspace(0, 3, 31),
                          values=np.zeros((31, 2, 2), dtype=complex),
                          status="completed", method="direct")
        assert residual_check(traj, cs0) <= 1e-12

    def test_tanh_fd_floor(self):
        # h = 1e-3: the cubic's O(h^4) floor is far below this bound
        cs, traj = tanh_trajectory(t_end=1.0, num=1001)
        assert residual_check(traj, cs) <= 1e-5

    def test_corruption_detector(self):
        cs, traj = tanh_trajectory(t_end=1.0, num=1001)
        values = traj.values.copy()
        values[500] += 1e-2
        bad = Trajectory(times=traj.times, values=values, status="completed",
                         method="direct")
        assert residual_check(bad, cs) > 1.0

    def test_needs_three_samples(self):
        cs = CAT["tanh"].cs
        traj = Trajectory(times=np.array([0.0, 1.0]),
                          values=np.zeros((2, 1, 1), dtype=complex),
                          status="completed", method="direct")
        with pytest.raises(ValueError):
            residual_series(traj, cs)


class TestHermiteResidual:
    """The residual differentiates the samples through the cubic Hermite
    interpolant with slopes F: fourth order on any grid, exact on cubics, 0
    at the end rows, raised by one shifted sample, and the same bits for
    every block size of its scan."""

    @staticmethod
    def satisfying(n, samples):
        cs, _, _, y0 = gen_satisfying(InstanceSpec(n=n, seed=1))
        ts = np.linspace(cs.t0, cs.t_end, samples)
        return cs, integrate_riccati_direct(cs, y0, IntegratorOptions(rtol=1e-12), ts)

    @staticmethod
    def shifted(traj, k, delta):
        values = traj.values.copy()
        values[k, 0, 0] += delta
        return Trajectory(times=traj.times, values=values, status="completed", method="file")

    def test_refinement_cuts_the_max_as_h4(self):
        # 4x the samples: h^4 gives 256x (central differences gave 16x)
        maxima = [residual_check(*self.satisfying(2, m)[::-1]) for m in (51, 201, 801)]
        assert maxima[0] >= 100 * maxima[1] and maxima[1] >= 100 * maxima[2], maxima

    def test_shifted_sample_raises_the_max(self):
        cs, traj = self.satisfying(8, 201)
        clean = residual_check(traj, cs)
        assert residual_check(self.shifted(traj, 100, 1e-8), cs) >= 100 * clean

    def test_cubic_solution_is_exact(self):
        # Y = t^3 I solves Y' = 3 t^2 I with P = Q = R = 0, and the cubic
        # interpolant reproduces it on any grid
        rng = np.random.default_rng(11)
        ts = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 2.0, 38)), [2.0]))
        zero = cf.constant(np.zeros((2, 2)))
        cs = CoefficientSet(n=2, t0=0.0, t_end=2.0, P=zero, Q=zero, R=zero,
                            S=cf.polynomial([np.zeros((2, 2)), np.zeros((2, 2)), 3 * np.eye(2)]))
        traj = Trajectory(times=ts, values=ts[:, None, None] ** 3 * np.eye(2), status="completed",
                          method="file")
        assert residual_check(traj, cs) <= 1e-14

    def test_end_rows_are_zero_and_the_first_sample_enters_row_one(self):
        cs, traj = self.satisfying(2, 201)
        clean = residual_series(traj, cs)
        assert clean[0] == 0.0 and clean[-1] == 0.0
        bad = residual_series(self.shifted(traj, 0, 1e-6), cs)
        assert bad[0] == 0.0 and bad[1] >= 100 * clean[1]

    @pytest.mark.parametrize("n, entries", [(1, 1), (1, 12), (3, 36), (3, 100), (8, 256), (8, 1280)])
    def test_bits_do_not_depend_on_the_block_size(self, n, entries, monkeypatch):
        # a block shares the F of its first rows with the block before it
        rng = np.random.default_rng(n)
        ts = np.cumsum(rng.uniform(0.01, 1.0, 23))
        values = rng.standard_normal((23, n, n)) + 1j * rng.standard_normal((23, n, n))
        g = rng.standard_normal((n, n))
        cs = CoefficientSet(n=n, t0=ts[0], t_end=ts[-1], P=cf.constant(g @ g.T),
                            Q=cf.polynomial([g, g.T], t_ref=ts[0]),
                            R=cf.sampled(ts, [np.sin(t) * g for t in ts], order=3),
                            S=cf.constant(g.T))
        traj = Trajectory(times=ts, values=values, status="completed", method="file")
        want = residual_series(traj, cs)
        monkeypatch.setattr(mc, "BLOCK_ENTRIES", entries)
        assert residual_series(traj, cs).tobytes() == want.tobytes()


class TestComparisonResidual:
    """A ``lyapunov`` run solves the comparison equation Y' = S - R* Y - Y R,
    and the residual judges it by that equation; every other method is
    judged by the Riccati equation."""

    @pytest.mark.parametrize("n, seed", [(3, 1), (8, 3)])
    def test_lyapunov_run_meets_its_own_equation(self, n, seed):
        # judged by the Riccati equation these runs read 0.43 and 0.056
        cs, y0 = gen_comparison(InstanceSpec(n=n, seed=seed, target="comparison"))
        traj = integrate_lyapunov_comparison(cs, y0)
        assert residual_check(traj, cs) <= 1e-8
        assert residual_check(dataclasses.replace(traj, method="file"), cs) >= 1e-3

    def test_matches_per_sample_reference(self):
        # n = 32 spans three blocks of the scan; the set's P and Q play no part
        rng = np.random.default_rng(29)
        n, ts = 32, np.linspace(0.0, 1.0, 41)
        values = rng.standard_normal((ts.size, n, n)) + 1j * rng.standard_normal((ts.size, n, n))
        g = rng.standard_normal((n, n))
        cs = CoefficientSet(n=n, t0=0.0, t_end=1.0, P=cf.constant(g @ g.T), Q=cf.constant(g),
                            R=cf.polynomial([g, g.T]), S=cf.constant(g @ g.T))
        comparison = CoefficientSet(n=n, t0=0.0, t_end=1.0, P=cf.constant(np.zeros((n, n))),
                                    Q=cf.polynomial([g.T, g]), R=cs.R, S=cs.S)
        want = [np.linalg.norm(hermite_slope(comparison, ts, values, k)
                               - slope(comparison, t, values[k]))
                / (1.0 + np.linalg.norm(values[k]) ** 2) for k, t in enumerate(ts)]
        traj = Trajectory(times=ts, values=values, status="completed", method="lyapunov")
        assert_allclose(residual_series(traj, cs), want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("method", ["direct", "radon"])
    def test_riccati_runs_keep_their_bits(self, method):
        cs, _, _, y0 = gen_satisfying(InstanceSpec(n=3, seed=1))
        traj = (integrate_riccati_direct(cs, y0) if method == "direct"
                else integrate_linear_system(cs, y0)[1])
        assert traj.method == method
        want = residual_series(dataclasses.replace(traj, method="file"), cs)
        assert residual_series(traj, cs).tobytes() == want.tobytes()


class TestGuaranteeSoundness:
    def test_certified_instances_hold_bound(self):
        # reduced-size version of the acceptance batch
        from riccati_cert.instances import gen_satisfying

        for seed in range(5):
            for n in (1, 2, 3):
                cs, lam, mu, y0 = gen_satisfying(InstanceSpec(n=n, seed=seed))
                ts = np.linspace(cs.t0, cs.t_end, 51)
                traj = integrate_riccati_direct(cs, y0, sample_times=ts)
                assert traj.status == "completed"
                assert verify_hermitian_bound(traj, lam, tol=1e-6).passed

    def test_strict_initial_margin_stays_positive(self):
        # pushing Y0 up by delta I keeps the monitored gap strictly positive
        from riccati_cert.instances import gen_satisfying

        delta = 0.1
        for seed in range(5):
            cs, lam, mu, y0 = gen_satisfying(InstanceSpec(n=2, seed=seed))
            ts = np.linspace(cs.t0, cs.t_end, 51)
            traj = integrate_riccati_direct(cs, y0 + delta * np.eye(2), sample_times=ts)
            assert traj.status == "completed"
            series = eigen_monitor(traj, lam)
            assert np.min(series) > 0.0

    def test_certified_instances_keep_flow_regular(self):
        # no phi_singular status on certified instances
        from riccati_cert.instances import gen_satisfying
        from riccati_cert.integrate import integrate_linear_system

        for seed in range(5):
            cs, lam, mu, y0 = gen_satisfying(InstanceSpec(n=2, seed=seed))
            flow, traj = integrate_linear_system(cs, y0,
                                                 sample_times=np.linspace(cs.t0, cs.t_end, 51))
            assert traj.status == "completed"
            assert traj.singular_times.size == 0


class TestNonFiniteMonitors:
    """Samples whose Y + Y* overflows never reach the eigenvalue solver."""

    @staticmethod
    def huge_trajectory(n, k=1):
        values = np.tile(np.eye(n, dtype=complex), (4, 1, 1))
        values[k] = 1e308
        return Trajectory(times=np.linspace(0.0, 1.0, 4), values=values,
                          status="completed", method="file")

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_overflowing_sample_gives_nan(self, n):
        series = eigen_monitor(self.huge_trajectory(n))
        assert np.isnan(series[1])
        assert_allclose(series[[0, 2, 3]], 2.0)

    def test_nan_fails_the_bound_at_its_time(self):
        rep = verify_hermitian_bound(self.huge_trajectory(3, k=2))
        assert not rep.passed
        assert math.isnan(rep.min_value) and rep.t_min == pytest.approx(2 / 3)

    def test_sandwich_fails_instead_of_raising(self):
        traj = self.huge_trajectory(3)
        rep = verify_sandwich(traj, traj)
        assert not rep.passed and math.isnan(rep.lower_min)

    def test_residual_weights_that_overflow_warn_nothing(self):
        # unequal spacings near 1e299: the cubic's weights divide by them
        times = np.array([0.0, 1e299, 3e299, 1e300])
        cs = CoefficientSet(n=1, t0=0.0, t_end=1e300, P=cf.constant([[0.0]]),
                            Q=cf.constant([[0.0]]), R=cf.constant([[0.0]]), S=cf.constant([[0.0]]))
        traj = Trajectory(times=times, values=np.ones((4, 1, 1), dtype=complex),
                          status="completed", method="file")
        assert verify.residual_series(traj, cs).shape == (4,)

    def test_empty_trajectory_gives_empty_series(self):
        traj = Trajectory(times=np.empty(0), values=np.empty((0, 2, 2), dtype=complex),
                          status="phi_singular", method="radon")
        assert eigen_monitor(traj).shape == (0,)

    def test_empty_trajectories_are_refused_by_both_bounds(self):
        traj = Trajectory(times=np.empty(0), values=np.empty((0, 2, 2), dtype=complex),
                          status="phi_singular", method="radon")
        for check in (verify_hermitian_bound, lambda t: verify_sandwich(t, t)):
            with pytest.raises(ValueError, match="^trajectory has no samples$"):
                check(traj)
