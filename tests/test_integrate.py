import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from riccati_cert import coefficients as cf
from riccati_cert import integrate
from riccati_cert.coefficients import CoefficientSet
from riccati_cert.exceptions import IntegrationError
from riccati_cert.instances import (
    InstanceSpec,
    canonical_catalog,
    gen_blowup,
    gen_comparison,
    gen_satisfying,
)
from riccati_cert.integrate import (
    IntegratorOptions,
    LiouvilleReport,
    integrate_linear_system,
    integrate_lyapunov_comparison,
    integrate_riccati_direct,
    liouville_check,
)
from riccati_cert.matrix_core import adjoint

CAT = canonical_catalog()


def scalar_set(t_end, p=0.0, q=0.0, r=0.0, s=0.0, t0=0.0):
    return CoefficientSet(n=1, t0=t0, t_end=t_end,
                          P=cf.constant([[p]]), Q=cf.constant([[q]]),
                          R=cf.constant([[r]]), S=cf.constant([[s]]))


class TestOptions:
    def test_defaults_valid(self):
        opts = IntegratorOptions()
        assert opts.rtol == 1e-9

    @pytest.mark.parametrize("kw", [
        {"rtol": 0.0},
        {"atol": -1e-12},
    ])
    def test_invalid_options_rejected(self, kw):
        with pytest.raises(IntegrationError):
            IntegratorOptions(**kw)

    @pytest.mark.parametrize("field", ["rtol", "atol"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_option_error_names_the_field(self, field, value):
        # the CLI turns the leading field name into the flag
        with pytest.raises(IntegrationError, match=f"^{field} must be a finite number > 0"):
            IntegratorOptions(**{field: value})


class TestDirect:
    def test_tanh_oracle(self):
        e = CAT["tanh"]
        ts = np.linspace(0.0, 3.0, 31)  # contains t = 1 exactly
        traj = integrate_riccati_direct(e.cs, e.y0, sample_times=ts)
        assert traj.status == "completed"
        k = int(np.argmin(np.abs(ts - 1.0)))
        assert abs(traj.values[k][0, 0] - math.tanh(1.0)) <= 1e-8

    def test_equilibrium(self):
        cs = scalar_set(5.0, p=1.0)
        traj = integrate_riccati_direct(cs, np.zeros((1, 1)))
        assert traj.status == "completed"
        assert np.max(np.abs(traj.values)) == 0.0

    def test_blowup_detection(self):
        e = CAT["tan_blowup"]
        traj = integrate_riccati_direct(e.cs, e.y0)
        assert traj.status == "blow_up"
        assert traj.blowup_trigger in ("norm_cap", "step_collapse")
        assert math.pi / 2 - 1e-3 <= traj.t_escape <= math.pi / 2
        # samples stop before the escape and stay finite
        assert traj.times[-1] <= traj.t_escape
        assert np.all(np.isfinite(traj.values.view(np.float64)))

    @pytest.mark.parametrize("c", [0.25, 1.0, 4.0])
    def test_blowup_scaling_oracle(self, c):
        # closed form: escape of y' = -c - y^2 is at pi / (2 sqrt(c))
        t_true = math.pi / (2 * math.sqrt(c))
        cs = scalar_set(t_true + 0.5, p=1.0, s=-c)
        traj = integrate_riccati_direct(cs, np.zeros((1, 1)))
        assert traj.status == "blow_up"
        assert abs(traj.t_escape - t_true) <= 1e-3

    def test_step_control_convergence(self):
        e = CAT["tanh"]
        ts = np.array([0.0, 3.0])
        errs = {}
        for rtol in (1e-5, 1e-6, 1e-7, 1e-8):
            opts = IntegratorOptions(rtol=rtol, atol=1e-14)
            traj = integrate_riccati_direct(e.cs, e.y0, opts, ts)
            errs[rtol] = abs(traj.values[-1][0, 0] - math.tanh(3.0))
        assert errs[1e-5] / errs[1e-6] >= 5.0
        assert errs[1e-7] / errs[1e-8] >= 5.0

    def test_hermitian_transport(self):
        # Y0 = Y0*, P, S Hermitian, R = Q* keep the solution Hermitian
        cs, y0 = gen_comparison(InstanceSpec(n=3, seed=23, target="comparison"))
        traj = integrate_riccati_direct(cs, y0, sample_times=np.linspace(cs.t0, cs.t_end, 101))
        assert traj.status == "completed"
        for k in range(traj.times.size):
            y = traj.values[k]
            assert np.linalg.norm(y - y.conj().T) <= 1e-8 * (1 + np.linalg.norm(y))

    def test_sample_grid_validation(self):
        e = CAT["tanh"]
        with pytest.raises(IntegrationError):
            integrate_riccati_direct(e.cs, e.y0, sample_times=np.array([0.5, 1.0]))
        with pytest.raises(IntegrationError):
            integrate_riccati_direct(e.cs, e.y0, sample_times=np.array([0.0, 99.0]))


class TestLinearFlow:
    def test_cosh_sinh_flow(self):
        e = CAT["cosh_sinh"]
        ts = np.linspace(0.0, 2.0, 41)
        flow, traj = integrate_linear_system(e.cs, e.y0, sample_times=ts)
        assert traj.status == "completed"
        for k, t in enumerate(ts):
            assert abs(flow.phi[k][0, 0] - math.cosh(t)) <= 1e-7 * math.cosh(t)
            assert abs(flow.psi[k][0, 0] - math.sinh(t)) <= 1e-7 * math.cosh(t)
            assert abs(traj.values[k][0, 0] - math.tanh(t)) <= 1e-8

    def test_continuation_through_pole(self):
        # direct integration dies at pi/2; the linear flow walks through it
        e = CAT["tan_blowup"]
        cs = scalar_set(math.pi, p=1.0, s=-1.0)
        ts = np.linspace(0.0, math.pi, 101)
        flow, traj = integrate_linear_system(cs, e.y0, sample_times=ts)
        assert traj.status == "phi_singular"
        assert len(traj.singular_times) >= 1
        assert abs(traj.singular_times[0] - math.pi / 2) <= 0.02
        past = [(t, traj.values[k][0, 0]) for k, t in enumerate(traj.times)
                if t > math.pi / 2 + 0.05]
        assert past, "flow must recover samples beyond the pole"
        for t, y in past:
            assert abs(y - (-math.tan(t))) <= 1e-6 * (1 + abs(math.tan(t)))

    def test_decoupled_reduction(self):
        # P = 0, R = 0: phi stays I and Y = psi solves the linear equation
        cs = scalar_set(2.0, s=1.0)
        ts = np.linspace(0.0, 2.0, 21)
        flow, traj = integrate_linear_system(cs, np.zeros((1, 1)), sample_times=ts)
        assert_allclose(flow.phi, np.ones((21, 1, 1)), atol=1e-12)
        for k, t in enumerate(ts):
            assert abs(traj.values[k][0, 0] - t) <= 1e-10

    def test_restart_transparency_scalar_growth(self):
        # phi = e^{4t} crosses the recondition threshold; the reconstructed
        # solution e^{-4t} must stay continuous and accurate through resets
        cs = scalar_set(6.0, r=4.0)
        ts = np.linspace(0.0, 6.0, 301)
        flow, traj = integrate_linear_system(cs, np.array([[1.0]]), sample_times=ts)
        assert traj.status == "completed"
        assert len(flow.restarts) >= 1
        for k, t in enumerate(traj.times):
            exact = math.exp(-4.0 * t)
            assert abs(traj.values[k][0, 0] - exact) <= 1e-8 * (1 + exact)

    def test_restart_preserves_reconstruction_at_reset(self):
        cs = scalar_set(6.0, r=4.0)
        ts = np.linspace(0.0, 6.0, 301)
        flow, traj = integrate_linear_system(cs, np.array([[1.0]]), sample_times=ts)
        idx = {float(t): k for k, t in enumerate(flow.times)}
        for tau in flow.restarts:
            k = idx[float(tau)]
            assert_allclose(flow.phi[k], np.eye(1), atol=0)
            j = int(np.argmin(np.abs(traj.times - tau)))
            assert_allclose(flow.psi[k], traj.values[j], atol=0)

    def test_condition_drift_restarts(self):
        # R = diag(4, -4): kappa(phi) = e^{8t} forces repeated reconditioning
        r = np.diag([4.0, -4.0])
        cs = CoefficientSet(n=2, t0=0.0, t_end=4.0,
                            P=cf.constant(np.zeros((2, 2))), Q=cf.constant(np.zeros((2, 2))),
                            R=cf.constant(r), S=cf.constant(np.zeros((2, 2))))
        y0 = np.ones((2, 2), dtype=complex)
        ts = np.linspace(0.0, 4.0, 201)
        flow, traj = integrate_linear_system(cs, y0, sample_times=ts)
        assert traj.status == "completed"
        assert len(flow.restarts) >= 1
        for k, t in enumerate(traj.times):
            exact = np.array([[math.exp(-4 * t), math.exp(4 * t)],
                              [math.exp(-4 * t), math.exp(4 * t)]])
            err = np.linalg.norm(traj.values[k] - exact)
            assert err <= 1e-6 * (1 + np.linalg.norm(exact))

    @pytest.mark.parametrize("rtol", [1e-3, 1e-6])
    def test_condition_drift_at_loose_rtol_restarts_instead_of_going_singular(self, rtol):
        # kappa(phi) = e^{8t} passes 0.5/rtol early: the flow must reset, not skip
        r = np.diag([4.0, -4.0])
        cs = CoefficientSet(n=2, t0=0.0, t_end=4.0,
                            P=cf.constant(np.zeros((2, 2))), Q=cf.constant(np.zeros((2, 2))),
                            R=cf.constant(r), S=cf.constant(np.zeros((2, 2))))
        flow, traj = integrate_linear_system(cs, np.ones((2, 2)), IntegratorOptions(rtol=rtol))
        assert traj.status == "completed" and traj.times.size == 201
        assert len(flow.restarts) >= 1
        for k, t in enumerate(traj.times):
            exact = np.array([[math.exp(-4 * t), math.exp(4 * t)]] * 2)
            assert np.linalg.norm(traj.values[k] - exact) <= 1e-6 * (1 + np.linalg.norm(exact))

    @pytest.mark.parametrize("rtol", [1e-3, 1e-6, 1e-9])
    def test_large_y0_with_phi_identity_completes(self, rtol):
        # P = R = 0 keeps phi = I exactly, so the reconstruction is exact however
        # large ||psi|| / sigma_min(phi) is
        cs = CoefficientSet(n=2, t0=0.0, t_end=2.0,
                            P=cf.constant(np.zeros((2, 2))), Q=cf.constant(0.3 * np.eye(2)),
                            R=cf.constant(np.zeros((2, 2))), S=cf.constant(np.eye(2)))
        flow, traj = integrate_linear_system(cs, 1e3 * np.eye(2), IntegratorOptions(rtol=rtol))
        assert traj.status == "completed" and traj.times.size == 201
        assert flow.restarts == []
        # Y' = I - 0.3 Y: Y = (1/0.3 + (1e3 - 1/0.3) e^{-0.3 t}) I
        exact = 1 / 0.3 + (1e3 - 1 / 0.3) * np.exp(-0.3 * traj.times)
        assert_allclose(traj.values[:, 0, 0], exact, rtol=10 * rtol)

    def test_cross_method_agreement_random(self):
        for seed in range(4):
            for n in (1, 2, 3, 4):
                cs, lam, mu, y0 = gen_satisfying(InstanceSpec(n=n, seed=seed, horizon=3.0))
                ts = np.linspace(cs.t0, cs.t_end, 61)
                direct = integrate_riccati_direct(cs, y0, sample_times=ts)
                assert direct.status == "completed"
                _, radon = integrate_linear_system(cs, y0, sample_times=ts)
                assert radon.status == "completed"
                for k in range(ts.size):
                    diff = np.linalg.norm(direct.values[k] - radon.values[k])
                    assert diff <= 1e-6 * (1 + np.linalg.norm(direct.values[k]))


def _sampled_constant(value, t_end):
    return cf.sampled([0.0, t_end], [[[value]], [[value]]], order=1)


class _Counted(cf.CoefficientFunction):
    """A function that records the times its ``eval`` is called at; its kind
    is none of the library's, so ``stacked_evaluator`` calls that ``eval``."""

    kind = "counted"

    def __init__(self, f):
        self.f, self.shape, self.calls = f, f.shape, []

    def eval(self, t):
        self.calls.append(t)
        return self.f.eval(t)

    def derivative(self, t):
        return self.f.derivative(t)


class TestStats:
    """``Trajectory.stats`` counts the driver's right-hand-side calls and
    steps; a counted R goes through ``R.eval`` once per step, at the
    step's six stage times, so the times it is evaluated at count them."""

    CASES = {
        # y' = -1 - y^2 escapes at pi/2 (norm cap), with rejected steps
        "direct_blowup": (integrate_riccati_direct, 3.0, dict(p=1.0, s=-1.0), 0.0, 5),
        # phi = e^{4t}: resets, each followed by a call at the reset state
        "radon_restarts": (integrate_linear_system, 6.0, {}, 4.0, 61),
        # y' = -8 y, with a rejected step
        "lyapunov": (integrate_lyapunov_comparison, 6.0, {}, 4.0, 5),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_nfev_counts_sampled_R_evals(self, case):
        integrator, t_end, data, r, samples = self.CASES[case]
        cs = scalar_set(t_end, **data)
        cs = CoefficientSet(n=1, t0=0.0, t_end=t_end, P=cs.P, Q=cs.Q,
                            R=_Counted(_sampled_constant(r, t_end)), S=cs.S)
        calls = cs.R.calls
        result = integrator(cs, np.array([[1.0]]), IntegratorOptions(rtol=1e-7),
                            np.linspace(cs.t0, cs.t_end, samples))
        flow, traj = result if isinstance(result, tuple) else (None, result)
        stats = traj.stats
        assert stats["nfev"] == sum(np.size(t) for t in calls) > 0
        steps = stats["steps_accepted"] + stats["steps_rejected"]
        resets = len(flow.restarts) if flow is not None else 0
        # f at t0, the starting-step probe, six stages per step and one
        # call after each reset
        assert stats["nfev"] == 2 + 6 * steps + resets
        if flow is not None:
            assert resets >= 1
        else:
            assert stats["steps_rejected"] >= 1
            assert traj.status == ("blow_up" if case == "direct_blowup" else "completed")
        # every accepted step ends at or before its next sample
        spacing = t_end / (samples - 1)
        assert 0 < stats["h_min"] <= stats["h_max"] <= spacing + 1e-13 * max(1.0, t_end)

    def test_step_range_on_a_sample_clamped_run(self):
        # tanh on 201 samples over [0, 3]: past the first few steps the error
        # allows steps longer than the sample spacing, so the samples clamp them
        e = CAT["tanh"]
        ts = np.linspace(0.0, 3.0, 201)
        stats = integrate_riccati_direct(e.cs, e.y0, sample_times=ts).stats
        assert 0 < stats["h_min"] < stats["h_max"]
        assert abs(stats["h_max"] - 0.015) <= 1e-12

    def test_step_range_is_none_without_a_step(self):
        e = CAT["tanh"]
        stats = integrate_riccati_direct(e.cs, e.y0, sample_times=np.array([0.0])).stats
        assert stats["steps_accepted"] == 0
        assert stats["h_min"] is None and stats["h_max"] is None


def _row_wise_step(rhs, stage_values, y, f0, h):
    """The Dormand-Prince step summed row by row: each stage input is y plus
    its weighted slopes in the tableau's order, the error vector its terms
    from the first, zero weights skipped. Returns the stage inputs, the
    right-hand side at the last one and the error vector."""
    k, inputs = [f0], []
    for i in range(1, 7):
        yi = y
        for j, a in enumerate(integrate._A[i]):
            if a != 0.0:
                yi = yi + (h * a) * k[j]
        inputs.append(yi)
        k.append(rhs(stage_values[i - 1], yi))
    terms = [(h * e) * k[j] for j, e in enumerate(integrate._ERR) if e != 0.0]
    err = terms[0]
    for term in terms[1:]:
        err = err + term
    return inputs, k[6], err


#: Real and imaginary parts: signed zeros, subnormals, ~1e300 and plain values.
_PARTS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1.3e300]),
                   st.floats(-4.0, 4.0))


class TestStageSums:
    """``_rk_stages`` adds each slope into every row it reaches at once; every
    stage input, the new state, its slope and the error vector equal the
    row-wise sums bit for bit, signs of zeros included."""

    @staticmethod
    def assert_same_bits(got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def check(self, rhs, stage_values, y, f0, h):
        fast_inputs = []  # the states _rk_stages calls rhs at, in call order

        def recorded(vals, yi):
            fast_inputs.append(yi.copy())
            return rhs(vals, yi)
        with np.errstate(all="ignore"):
            y_new, f_new, err = integrate._rk_stages(recorded, stage_values, y, f0, h)
            inputs, f_ref, err_ref = _row_wise_step(rhs, stage_values, y, f0, h)
        assert len(fast_inputs) == 6
        for got, want in zip(fast_inputs, inputs):
            self.assert_same_bits(got, want)
        for got, want in ((y_new, inputs[-1]), (f_new, f_ref), (err, err_ref)):
            self.assert_same_bits(got, want)
        return y_new, err

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(data=st.data(), n=st.sampled_from([1, 2, 3]), flow=st.booleans(),
           h=st.one_of(st.floats(1e-300, 1e300), st.sampled_from([5e-324, 1e-12, 0.1, 1.0])))
    def test_slope_major_sums_equal_the_row_wise_sums(self, data, n, flow, h):
        shape = (2, n, n) if flow else (n, n)
        complexes = st.builds(complex, _PARTS, _PARTS)

        def draw(label):
            return data.draw(hnp.arrays(np.complex128, shape, elements=complexes), label=label)

        y, f0 = draw("y"), draw("f0")
        stage_values = [draw(f"stage {i + 2}") for i in range(6)]
        self.check(lambda vals, yi: vals - yi * vals, stage_values, y, f0, h)

    def test_zero_weights_are_never_applied(self):
        # k_2 (the slope of stage 2) is inf; A[6][1] = E[1] = 0 leave it out
        # of the new state and the error vector, where 0 * inf would be NaN
        y = np.array([[1.0 - 2.0j, -0.0], [0.5j, 3.0]])
        stage_values = [np.full((2, 2), v, dtype=np.complex128)
                        for v in (math.inf, 1.0, -2.0, 0.5, 3.0, -1.0)]
        y_new, err = self.check(lambda vals, yi: vals, stage_values, y, 0.25 * y, 0.125)
        assert np.isfinite(y_new).all() and np.isfinite(err).all()

    def test_error_vector_starts_from_its_first_term(self):
        # slopes whose every error term is -0.0 + 0.0j: (w + 0j) * (x + 0j) has
        # the real part -0.0 when x is a zero of the sign opposite to w's. The
        # sum of those terms is -0.0; a sum started from +0.0 would be +0.0
        slopes = [np.full((2, 2), complex(math.copysign(0.0, -e), 0.0))
                  for e in integrate._ERR]
        _, err = self.check(lambda vals, yi: vals, slopes[1:], np.ones((2, 2), complex),
                            slopes[0], 0.5)
        assert np.signbit(err.real).all()


def _twins(data: dict, t_end: float, n: int):
    """The same data as all constants and as degree-0 polynomials."""
    def build(make):
        return CoefficientSet(n=n, t0=0.0, t_end=t_end,
                              **{name: make(value) for name, value in data.items()})
    return (build(cf.constant), build(lambda value: cf.polynomial([value])))


class TestStorageIndependence:
    """Constant data give the same bits as the same data stored as degree-0
    polynomials: the once-per-run stage values of constants match the
    per-step evaluation."""

    CASES = {
        # a complex, non-normal n = 2 system that completes
        "completed": (dict(P=np.array([[1.0, 0.5j], [-0.5j, 2.0]]),
                           Q=np.array([[0.3, -1.0], [0.2, 0.1j]]),
                           R=np.array([[-0.2, 0.0], [1.0, 0.4]]),
                           S=np.array([[1.0, 0.25], [0.25, 0.5]])),
                      2.0, np.array([[0.1, 0.2j], [-0.2j, 0.3]])),
        # P = S = I on [0, 40]: the linear flow restarts
        "restarts": (dict(P=np.eye(2), Q=np.zeros((2, 2)), R=np.zeros((2, 2)), S=np.eye(2)),
                     40.0, np.zeros((2, 2))),
        # y' = -1 - y^2 escapes at pi/2
        "blow_up": (dict(P=np.eye(1), Q=np.zeros((1, 1)), R=np.zeros((1, 1)), S=-np.eye(1)),
                    3.0, np.zeros((1, 1))),
    }

    @staticmethod
    def assert_same_trajectory(a, b):
        assert a.times.tobytes() == b.times.tobytes()
        assert a.values.tobytes() == b.values.tobytes()
        assert (a.status, a.t_escape, a.blowup_trigger) == (b.status, b.t_escape, b.blowup_trigger)
        assert a.singular_times.tobytes() == b.singular_times.tobytes()
        assert a.stats == b.stats

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_constant_and_polynomial_storage_agree(self, case):
        data, t_end, y0 = self.CASES[case]
        const, poly = _twins(data, t_end, y0.shape[0])
        direct = [integrate_riccati_direct(cs, y0) for cs in (const, poly)]
        self.assert_same_trajectory(*direct)
        self.assert_same_trajectory(*(integrate_lyapunov_comparison(cs, y0)
                                      for cs in (const, poly)))
        (flow_c, traj_c), (flow_p, traj_p) = (integrate_linear_system(cs, y0)
                                              for cs in (const, poly))
        self.assert_same_trajectory(traj_c, traj_p)
        assert flow_c.times.tobytes() == flow_p.times.tobytes()
        assert flow_c.phi.tobytes() == flow_p.phi.tobytes()
        assert flow_c.psi.tobytes() == flow_p.psi.tobytes()
        assert flow_c.restarts == flow_p.restarts
        assert direct[0].status == ("blow_up" if case == "blow_up" else "completed")
        assert (len(flow_c.restarts) >= 1) == (case == "restarts")


class TestEvaluationCount:
    """All-constant data are evaluated once per run; other data once per step
    (at its six stage times) plus the calls at t0 and the starting-step probe."""

    @pytest.fixture
    def calls(self, monkeypatch):
        count = [0]
        evaluate_passes = cf.evaluate_passes

        def counted(*args):
            count[0] += 1
            return evaluate_passes(*args)
        monkeypatch.setattr(cf, "evaluate_passes", counted)
        return count

    def test_constant_run_does_not_count_its_steps(self, calls):
        e = CAT["tanh"]
        assert all(f.kind == "constant" for f in (e.cs.P, e.cs.Q, e.cs.R, e.cs.S))
        per_run = []
        for samples in (2, 201):
            calls[0] = 0
            ts = np.linspace(e.cs.t0, e.cs.t_end, samples)
            traj = integrate_riccati_direct(e.cs, e.y0, sample_times=ts)
            per_run.append((calls[0], traj.stats["steps_accepted"]))
        (few, few_steps), (many, many_steps) = per_run
        assert few == many and few_steps < many_steps

    def test_polynomial_run_evaluates_once_per_step(self, calls):
        cs, _, _, y0 = gen_satisfying(InstanceSpec(n=2, seed=3, horizon=2.0))
        traj = integrate_riccati_direct(cs, y0)
        steps = traj.stats["steps_accepted"] + traj.stats["steps_rejected"]
        assert steps > 0 and calls[0] == 2 + steps


class TestLyapunovComparison:
    def test_constant_source(self):
        cs = CoefficientSet(n=2, t0=0.0, t_end=3.0,
                            P=cf.constant(np.zeros((2, 2))), Q=cf.constant(np.zeros((2, 2))),
                            R=cf.constant(np.zeros((2, 2))), S=cf.constant(np.eye(2)))
        traj = integrate_lyapunov_comparison(cs, np.zeros((2, 2)))
        for k, t in enumerate(traj.times):
            assert_allclose(traj.values[k], t * np.eye(2), atol=1e-9)

    def test_scalar_decay_oracle(self):
        # ytilde' = -2 ytilde from 1: e^{-2t}, so ytilde(1) = e^{-2}
        cs = scalar_set(1.0, r=1.0)
        ts = np.linspace(0.0, 1.0, 11)
        traj = integrate_lyapunov_comparison(cs, np.array([[1.0]]), sample_times=ts)
        assert abs(traj.values[-1][0, 0] - math.exp(-2.0)) <= 1e-9

    def test_sandwich_against_direct_tanh(self):
        # 0 <= tanh(t) <= t on [0, 3]
        cs = scalar_set(3.0, p=1.0, s=1.0)
        ts = np.linspace(0.0, 3.0, 31)
        y = integrate_riccati_direct(cs, np.zeros((1, 1)), sample_times=ts)
        yt = integrate_lyapunov_comparison(cs, np.zeros((1, 1)), sample_times=ts)
        for k, t in enumerate(ts):
            assert abs(y.values[k][0, 0] - math.tanh(t)) <= 1e-8
            assert abs(yt.values[k][0, 0] - t) <= 1e-8
        assert traj_notes_mention_comparison(yt)


def traj_notes_mention_comparison(traj):
    return any("A(t) := R(t)" in note for note in traj.notes)


class TestStateLayout:
    """Every integrator returns its samples as an (m, n, n) stack, also at
    one and two sample times; the linear flow keeps t0 as its first sample."""

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("m", [1, 2])
    def test_values_are_matrix_stacks(self, n, m):
        cs, y0 = gen_comparison(InstanceSpec(n=n, seed=2, target="comparison"))
        ts = np.linspace(cs.t0, cs.t_end, 2)[:m]
        flow, radon = integrate_linear_system(cs, y0, sample_times=ts)
        for traj in (integrate_riccati_direct(cs, y0, sample_times=ts), radon,
                     integrate_lyapunov_comparison(cs, y0, sample_times=ts)):
            assert traj.status == "completed"
            assert traj.values.shape == (m, n, n)
            assert traj.n == n
        assert flow.phi.shape == flow.psi.shape == (m, n, n)
        assert flow.times[0] == radon.times[0] == cs.t0
        assert_allclose(flow.phi[0], np.eye(n), atol=0)
        assert_allclose(flow.psi[0], y0, atol=0)
        assert_allclose(radon.values[0], y0, atol=0)


class TestLiouville:
    def test_cosh_flow_identity(self):
        # det phi = cosh(t) and exp{int tanh} = cosh(t)
        e = CAT["cosh_sinh"]
        ts = np.linspace(0.0, 2.0, 401)
        flow, traj = integrate_linear_system(e.cs, e.y0, sample_times=ts)
        rep = liouville_check(flow, e.cs, traj)
        assert rep.max_rel_error <= 1e-6
        assert rep.spans == [(0.0, 2.0)]

    def test_constant_trace_oracle(self):
        # R = diag(1, 2), P = S = Q = 0: det phi(t) = e^{3t} exactly
        r = np.diag([1.0, 2.0])
        cs = CoefficientSet(n=2, t0=0.0, t_end=2.0,
                            P=cf.constant(np.zeros((2, 2))), Q=cf.constant(np.zeros((2, 2))),
                            R=cf.constant(r), S=cf.constant(np.zeros((2, 2))))
        ts = np.linspace(0.0, 2.0, 201)
        flow, traj = integrate_linear_system(cs, np.zeros((2, 2)), sample_times=ts)
        dets = np.linalg.det(flow.phi)
        assert np.max(np.abs(dets - np.exp(3 * ts))) <= 1e-6 * np.exp(6.0)
        rep = liouville_check(flow, cs, traj)
        assert rep.max_rel_error <= 1e-6

    def test_trivial_span_is_exact(self):
        e = CAT["cosh_sinh"]
        ts = np.array([0.0])
        flow, traj = integrate_linear_system(e.cs, e.y0, sample_times=ts)
        rep = liouville_check(flow, e.cs, traj)
        assert rep.max_rel_error == 0.0

    def test_spans_break_at_restarts(self):
        cs = scalar_set(6.0, r=4.0)
        ts = np.linspace(0.0, 6.0, 301)
        flow, traj = integrate_linear_system(cs, np.array([[1.0]]), sample_times=ts)
        assert len(flow.restarts) >= 1
        rep = liouville_check(flow, cs, traj)
        assert len(rep.spans) == len(flow.restarts) + 1
        assert rep.max_rel_error <= 1e-6

    @pytest.mark.xfail(strict=True, reason="the linear flow steps over poles of Y that fall "
                       "between samples: no sample is singular, so the run reads completed "
                       "and liouville_check's one span crosses them")
    def test_poles_between_samples_split_the_run(self):
        # Y = -tan t: poles at pi/2 and 3 pi/2 on [0, 5], none on a sample time
        cs, y0 = gen_blowup(InstanceSpec(n=2, seed=1, target="blowup"))
        flow, traj = integrate_linear_system(cs, y0)
        assert traj.status != "completed"
        assert liouville_check(flow, cs, traj).max_rel_error <= 1e-6


def reference_liouville_check(flow, cs, traj):
    """``liouville_check`` as it was with its spans found by a per-sample
    loop over float-keyed dict and set lookups; the array version must give
    the same spans and the same report bit for bit."""
    traj_index = {float(t): i for i, t in enumerate(traj.times)}
    restart_set = {float(t) for t in flow.restarts}
    spans, current = [], []
    for i, t in enumerate(flow.times):
        t = float(t)
        if t not in traj_index:
            if current:
                spans.append(current)
            current = []
            continue
        if t in restart_set and current:
            spans.append(current)
            current = []
        current.append(i)
    if current:
        spans.append(current)

    def integrands(ts, y):
        r, p = cs.R.eval(ts), cs.P.eval(ts)
        return (np.trace(r + p @ y, axis1=-2, axis2=-1),
                np.trace(r + adjoint(r) + p @ (y + adjoint(y)), axis1=-2, axis2=-1).real)

    max_det = max_mod = 0.0
    checked = []
    tiny = np.finfo(float).tiny
    for span in spans:
        idx = np.array(span)
        ts = flow.times[idx]
        checked.append((float(ts[0]), float(ts[-1])))
        if len(span) == 1:
            continue
        dx = float(np.diff(ts)[0])
        dets = np.linalg.det(flow.phi[idx])
        ys = traj.values[[traj_index[float(t)] for t in ts]]
        integrand, integrand2 = integrate._scan(ts, cs.n, integrands, ys)
        rhs = dets[0] * np.exp(integrate._cumulative_simpson(integrand, dx))
        rel = np.abs(dets - rhs) / np.maximum(np.maximum(np.abs(dets), np.abs(rhs)), tiny)
        max_det = max(max_det, float(np.max(rel)))
        lhs2 = np.abs(dets) ** 2
        rhs2 = (np.abs(dets[0]) ** 2) * np.exp(integrate._cumulative_simpson(integrand2, dx))
        rel2 = np.abs(lhs2 - rhs2) / np.maximum(np.maximum(lhs2, rhs2), tiny)
        max_mod = max(max_mod, float(np.max(rel2)))
    return LiouvilleReport(max_rel_error=max(max_det, max_mod), det_form_error=max_det,
                           modulus_form_error=max_mod, spans=checked)


@pytest.mark.parametrize("case", ["tanh", "growth", "through_pole"])
def test_liouville_spans_match_the_per_sample_loop(case):
    """tanh: one span; growth: restarts split the span; through_pole:
    singular samples drop out of the trajectory and split it."""
    cs, t_end, y0 = {"tanh": (scalar_set(2.0, p=1.0, s=1.0), 2.0, np.zeros((1, 1))),
                     "growth": (scalar_set(6.0, r=4.0), 6.0, np.array([[1.0]])),
                     "through_pole": (scalar_set(math.pi, p=1.0, s=-1.0), math.pi,
                                      np.zeros((1, 1)))}[case]
    flow, traj = integrate_linear_system(cs, y0, sample_times=np.linspace(0.0, t_end, 101))
    assert (len(flow.restarts) > 0) == (case == "growth")
    assert (traj.singular_times.size > 0) == (case == "through_pole")
    ref = reference_liouville_check(flow, cs, traj)
    rep = liouville_check(flow, cs, traj)
    assert rep.spans == ref.spans
    assert len(rep.spans) == {"tanh": 1, "growth": len(flow.restarts) + 1}.get(case, 2)
    assert [float(x).hex() for x in (rep.max_rel_error, rep.det_form_error,
                                     rep.modulus_form_error)] == \
        [float(x).hex() for x in (ref.max_rel_error, ref.det_form_error, ref.modulus_form_error)]


def reference_cumulative_simpson(y, dx):
    """``_cumulative_simpson`` as a per-sample loop over the recurrence."""
    m = y.shape[0]
    out = np.zeros(m, dtype=y.dtype)
    if m == 1:
        return out
    if m == 2:
        out[1] = dx * (y[0] + y[1]) / 2.0
        return out
    out[1] = dx * (5.0 * y[0] + 8.0 * y[1] - y[2]) / 12.0
    for i in range(2, m):
        out[i] = out[i - 2] + dx * (y[i - 2] + 4.0 * y[i - 1] + y[i]) / 3.0
    return out


@pytest.mark.parametrize("m", [*range(1, 40), 201, 1001])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_cumulative_simpson_matches_the_loop(m, dtype):
    rng = np.random.default_rng(m)
    y = rng.standard_normal(m) * 10.0 ** rng.integers(-3, 4, m)
    if dtype is np.complex128:
        y = y + 1j * rng.standard_normal(m)
    y[::7] = -0.0  # signed zeros must come out the same
    dx = float(rng.uniform(1e-3, 1.0))
    got = integrate._cumulative_simpson(y.astype(dtype), dx)
    want = reference_cumulative_simpson(y.astype(dtype), dx)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestNonFiniteInputs:
    @pytest.mark.parametrize("integrator", [integrate_riccati_direct, integrate_linear_system,
                                            integrate_lyapunov_comparison])
    @pytest.mark.parametrize("times", [[np.nan], [0.0, np.nan], [0.0, np.inf]])
    def test_sample_times_must_be_finite(self, integrator, times):
        with pytest.raises(IntegrationError, match="^sample_times must be a non-empty 1-D "
                                                   "array of finite times$"):
            integrator(scalar_set(1.0, p=1.0, s=1.0), np.array([[1.0]]),
                       sample_times=np.array(times))

    def test_overflowing_steps_are_rejected_silently(self):
        # R = 1e307 t^2 overflows every step's stages; the suite turns a
        # RuntimeWarning into an error, so the run must not raise one
        cs = CoefficientSet(n=1, t0=0.0, t_end=5.0, P=cf.constant([[1.0]]),
                            Q=cf.constant([[0.0]]), R=cf.polynomial([[[0.0]], [[0.0]], [[1e307]]]),
                            S=cf.constant([[1.0]]))
        traj = integrate_riccati_direct(cs, np.array([[1.0]]))
        assert traj.status == "blow_up" and traj.blowup_trigger == "step_collapse"
        assert np.isfinite(traj.values).all()

    def test_liouville_overflow_is_nan(self):
        # det Phi = e^{64 t} overflows at the samples t >= 12 of five
        n = 64
        z = cf.constant(np.zeros((n, n)))
        cs = CoefficientSet(n=n, t0=0.0, t_end=16.0, P=z, Q=z, R=cf.constant(np.eye(n)), S=z)
        flow, traj = integrate_linear_system(cs, np.zeros((n, n)),
                                             sample_times=np.linspace(0.0, 16.0, 17))
        assert traj.status == "completed" and not flow.restarts
        assert (n * np.log(np.abs(flow.phi[:, 0, 0])) > 710.0).sum() == 5
        rep = liouville_check(flow, cs, traj)
        assert math.isnan(rep.max_rel_error) and math.isnan(rep.det_form_error)
