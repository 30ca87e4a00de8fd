import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from riccati_cert import coefficients as cf
from riccati_cert import verify
from riccati_cert.coefficients import CoefficientSet
from riccati_cert.exceptions import DimensionError
from riccati_cert.instances import InstanceSpec, canonical_catalog, gen_comparison
from riccati_cert.integrate import (
    Trajectory,
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
        deriv = np.gradient(values, ts, axis=0, edge_order=2)
        want_gap, want_resid = [], []
        for k, t in enumerate(ts):
            y, l = values[k], lam.eval(float(t))
            gap = y + y.conj().T - l - l.conj().T
            want_gap.append(np.linalg.eigvalsh((gap + gap.conj().T) / 2)[0])
            r = deriv[k] + y @ cs.P.eval(t) @ y + cs.Q.eval(t) @ y + y @ cs.R.eval(t) - cs.S.eval(t)
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
        # h = 1e-3 leaves only the O(h^2) differencing floor
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


class TestCentralDifferences:
    """The residual's derivative equals ``np.gradient(..., edge_order=2)`` bit
    for bit, formed block by block, and so does the residual it enters."""

    GRIDS = {
        "uniform": lambda m: 0.25 * np.arange(m),
        "linspace": lambda m: np.linspace(0.0, 5.0, m),
        "random": lambda m: np.cumsum(np.random.default_rng(m).uniform(0.01, 1.0, m)),
    }

    @staticmethod
    def samples(m, n, seed=3):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("m, n", [(3, 1), (3, 3), (201, 32)])
    def test_rows_equal_numpy_gradient(self, grid, m, n):
        times, f = self.GRIDS[grid](m), self.samples(m, n)
        # numpy's global test: 201 linspace points are not exactly uniform
        spacings = np.diff(times)
        uniform = grid == "uniform" or (grid == "linspace" and m == 3)
        assert (spacings == spacings[0]).all() == uniform
        want = np.gradient(f, times, axis=0, edge_order=2)
        rows = verify._central_differences(f, times)
        for step in (1, 2, 4, 16, m):
            got = np.concatenate([rows(lo, min(lo + step, m)) for lo in range(0, m, step)])
            assert got.tobytes() == want.tobytes(), step

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("m, n", [(3, 3), (201, 32)])
    def test_residual_equals_the_gradient_formula(self, grid, m, n):
        times, values = self.GRIDS[grid](m), self.samples(m, n)
        g = np.random.default_rng(5).standard_normal((n, n))
        lam = cf.polynomial([g, g.T, 0.5 * g], t_ref=times[0])
        cs = CoefficientSet(n=n, t0=times[0], t_end=times[-1], P=cf.constant(g @ g.T),
                            Q=lam, R=cf.constant(g), S=cf.polynomial([g.T, g]))
        traj = Trajectory(times=times, values=values, status="completed", method="file")
        dy = np.gradient(values, times, axis=0, edge_order=2)
        p, q, r, s = (f.eval(times) for f in (cs.P, cs.Q, cs.R, cs.S))
        resid = dy + values @ p @ values + q @ values + values @ r - s
        want = np.linalg.norm(resid, axis=(-2, -1)) / (
            1.0 + np.linalg.norm(values, axis=(-2, -1)) ** 2)
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

    def test_empty_trajectory_gives_empty_series(self):
        traj = Trajectory(times=np.empty(0), values=np.empty((0, 2, 2), dtype=complex),
                          status="phi_singular", method="radon")
        assert eigen_monitor(traj).shape == (0,)
