import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from riccati_cert import coefficients as cf
from riccati_cert import integrate
from riccati_cert import matrix_core as mc
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


class TestFlowConditioning:
    """The flow's stats keep the least sigma_min(Phi) / ||[Phi; Psi]||_F over
    the samples, taken before any reset, and its time."""

    @staticmethod
    def ratios(flow):
        return np.array([np.linalg.svd(phi, compute_uv=False)[-1]
                         / math.hypot(np.linalg.norm(phi), np.linalg.norm(psi))
                         for phi, psi in zip(flow.phi, flow.psi)])

    @staticmethod
    def rates(*rates):
        """P = I, Q = R = 0, S = diag(rates^2) on [0, 40] from Y0 = 0: Phi grows as
        diag(cosh(rate t)), so the flow restarts."""
        n = len(rates)
        cs = CoefficientSet(n=n, t0=0.0, t_end=40.0, P=cf.constant(np.eye(n)),
                            Q=cf.constant(np.zeros((n, n))), R=cf.constant(np.zeros((n, n))),
                            S=cf.constant(np.diag(np.square(rates))))
        return integrate_linear_system(cs, np.zeros((n, n)))

    def test_equals_the_recomputation_from_the_samples_without_restart(self):
        cs, y0 = gen_comparison(InstanceSpec(n=3, seed=2, target="comparison"))
        flow, traj = integrate_linear_system(cs, y0)
        assert not flow.restarts
        ratios = self.ratios(flow)
        k = int(np.argmin(ratios))
        assert traj.stats["phi_sigma_ratio"] == ratios[k]
        assert traj.stats["phi_sigma_ratio_t"] == flow.times[k]

    def test_tanh40_restarts_and_no_stored_sample_is_lower(self):
        # Phi = cosh(t) I scales out of the ratio
        flow, traj = self.rates(1.0, 1.0)
        assert flow.restarts and traj.stats["phi_sigma_ratio"] <= self.ratios(flow).min()

    def test_a_restart_counts_the_flow_before_its_reset(self):
        # rates 1 and 2: Phi is reset at the least ratio, so every stored sample lies above
        flow, traj = self.rates(1.0, 2.0)
        assert flow.restarts and traj.stats["phi_sigma_ratio"] < self.ratios(flow).min()
        assert traj.stats["phi_sigma_ratio_t"] in flow.restarts

    def test_a_pole_reads_far_below_a_regular_flow(self):
        # gen_blowup's Phi = cos(t) I vanishes at pi / 2, between two samples
        blowup = integrate_linear_system(*gen_blowup(InstanceSpec(n=2, seed=1, target="blowup")))
        regular = integrate_linear_system(*gen_comparison(InstanceSpec(n=2, seed=1,
                                                                       target="comparison")))
        low, high = blowup[1].stats, regular[1].stats
        assert low["phi_sigma_ratio"] < 0.05 * high["phi_sigma_ratio"]
        assert abs(low["phi_sigma_ratio_t"] - math.pi / 2) < 0.025


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
    steps, six per step; a counted R goes through ``R.eval`` once per step,
    at the step's five distinct stage times (stages 6 and 7 share t + h), so
    the times it is evaluated at count them."""

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
        steps = stats["steps_accepted"] + stats["steps_rejected"]
        resets = len(flow.restarts) if flow is not None else 0
        # f at t0, the starting-step probe, six stages per step and one
        # call after each reset
        assert stats["nfev"] == 2 + 6 * steps + resets
        # R at t0, at the probe, at five times per step and after each reset
        assert sum(np.size(t) for t in calls) == 2 + 5 * steps + resets
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


class TestRightHandSides:
    """The direct run's S - Q Y - Y (R + P Y) and the flow's one product
    H [Phi; Psi], H = [[R, P], [S, -Q]], equal the textbook forms
    S - Y P Y - Q Y - Y R and (R Phi + P Psi, S Phi - Q Psi) to rounding,
    on random complex data read through the constant path (constants) and
    through windows of sample-to-sample steps (degree-0 polynomials). The
    flow of such data is exact, and its H is checked as the one value it
    steps by; with the exact route switched off, as the stages' values."""

    @staticmethod
    def captured(monkeypatch, run):
        """The (rhs, stage values) of every step ``run()`` takes, and the
        number of times of each coefficient evaluation. A call on a stack of
        bases (``_step_maps``: the flow's steps as matrices) is one step per
        basis, each with its own stage values; the H of an exact flow
        (``_exact_flow``) is one step of that H."""
        steps, sizes = [], []
        rk_stages, evaluate_passes = integrate._rk_stages, cf.evaluate_passes
        exact_flow = integrate._exact_flow

        def spy(rhs, stage_values, y, *args):
            if y.ndim == 2:
                steps.append((rhs, stage_values))
            else:
                steps.extend((rhs, [v[w] for v in stage_values])
                             for w in range(len(stage_values[0])))
            return rk_stages(rhs, stage_values, y, *args)

        def counted(*args):
            sizes.append(args[-1].size)
            return evaluate_passes(*args)

        def exact(h, *args):
            steps.append((np.matmul, [h]))
            return exact_flow(h, *args)
        monkeypatch.setattr(integrate, "_rk_stages", spy)
        monkeypatch.setattr(cf, "evaluate_passes", counted)
        monkeypatch.setattr(integrate, "_exact_flow", exact)
        run()
        return steps, sizes

    @staticmethod
    def data(n: int, storage: str):
        rng = np.random.default_rng(n)
        p, q, r, s, y0 = (rng.standard_normal((5, n, n))
                          + 1j * rng.standard_normal((5, n, n))) / (4 * n)
        p = p + adjoint(p)  # CoefficientSet asks for a Hermitian P
        make = cf.constant if storage == "constant" else (lambda v: cf.polynomial([v]))
        cs = CoefficientSet(n=n, t0=0.0, t_end=0.01, P=make(p), Q=make(q), R=make(r),
                            S=make(s))
        return cs, (p, q, r, s), y0, rng

    @staticmethod
    def assert_close(got, want, scale):
        assert got.shape == want.shape and got.dtype == np.complex128
        assert np.linalg.norm(got - want) <= 1e-13 * scale

    @pytest.mark.parametrize("storage", ["constant", "polynomial"])
    @pytest.mark.parametrize("n", [1, 2, 8, 32])
    def test_direct_matches_the_textbook_form(self, monkeypatch, n, storage):
        cs, (p, q, r, s), y0, rng = self.data(n, storage)
        steps, sizes = self.captured(monkeypatch, lambda: integrate_riccati_direct(
            cs, y0, sample_times=np.linspace(cs.t0, cs.t_end, 6)))
        # polynomials read windows of several steps (of one step at n = 32)
        assert steps and (storage == "constant" or n == 32 or max(sizes) > 6)
        norm = np.linalg.norm
        for rhs, stage_values in steps:
            for values in stage_values:
                y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                want = s - y @ p @ y - q @ y - y @ r
                scale = norm(s) + norm(y) ** 2 * norm(p) + norm(q) * norm(y) + norm(y) * norm(r)
                self.assert_close(rhs(values, y), want, scale)

    @pytest.mark.parametrize("storage", ["constant", "polynomial"])
    @pytest.mark.parametrize("n", [1, 2, 8, 32])
    def test_flow_matches_the_textbook_form(self, monkeypatch, n, storage):
        self.check_flow(monkeypatch, n, storage, exact=True)

    @pytest.mark.parametrize("storage", ["constant", "polynomial"])
    @pytest.mark.parametrize("n", [1, 2, 8, 32])
    def test_flow_off_the_exact_route_matches_the_textbook_form(self, monkeypatch, n, storage):
        monkeypatch.setattr(integrate, "_one_value", lambda f: False)
        self.check_flow(monkeypatch, n, storage, exact=False)

    def check_flow(self, monkeypatch, n, storage, exact):
        cs, (p, q, r, s), y0, rng = self.data(n, storage)
        steps, sizes = self.captured(monkeypatch, lambda: integrate_linear_system(
            cs, y0, sample_times=np.linspace(cs.t0, cs.t_end, 6)))
        # H takes one value: the exact flow reads it once; off that route,
        # polynomials read windows for the batches of sample-to-sample steps
        assert steps and (len(steps) == 1) == exact
        assert exact or storage == "constant" or n > integrate._MAPS_MAX_N or max(sizes) > 6
        norm = np.linalg.norm
        for rhs, stage_values in steps:
            for values in stage_values:
                x = rng.standard_normal((2 * n, n)) + 1j * rng.standard_normal((2 * n, n))
                phi, psi = x[:n], x[n:]
                want = np.concatenate((r @ phi + p @ psi, s @ phi - q @ psi))
                scale = (norm(r) + norm(p) + norm(s) + norm(q)) * norm(x)
                self.assert_close(rhs(values, x), want, scale)


class TestNorm:
    """``_norm`` gives ``np.linalg.norm``'s bits, on whole states and on the
    row blocks Phi = X[:n] and Psi = X[n:] of the flow's state; the batched
    ``_norms`` and ``_rms_each`` give ``_norm``'s and ``_rms``'s."""

    @pytest.mark.parametrize("n", [1, 2, 8, 32])
    def test_norm_equals_numpy(self, n):
        rng = np.random.default_rng(n)
        scales = 10.0 ** rng.integers(-200, 200, size=(2 * n, n))
        x = (rng.standard_normal((2 * n, n)) + 1j * rng.standard_normal((2 * n, n))) * scales
        with np.errstate(over="ignore"):
            for a in (x, x[:n], x[n:], x / 1e200, x[:n] * 1e-200, np.zeros((n, n), complex)):
                assert integrate._norm(a).hex() == float(np.linalg.norm(a)).hex()

    def test_norm_of_non_finite_states(self):
        for v in (math.inf, -math.inf, math.nan, complex(0.0, math.inf), complex(math.nan, 1.0)):
            x = np.ones((4, 2), dtype=np.complex128)
            x[3, 1] = v
            for a in (x, x[:2], x[2:]):
                assert integrate._norm(a).hex() == float(np.linalg.norm(a)).hex()

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_batched_norms_equal_the_single_ones(self, n):
        """``_norms`` and ``_rms_each`` give ``_norm``'s and ``_rms``'s bits
        on each of a stack of states, as the batches hand them over: a strided
        slice of the stack of [X; F], and any number of them."""
        rng = np.random.default_rng(n)
        for m in (1, 3, 170):
            shape = (m, 4 * n, n)
            z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * (
                10.0 ** rng.integers(-100, 100, size=shape))
            z[0] = z[0].real
            x = z[:, :2 * n]
            pairs = integrate._norms(x.reshape(m, 2, n * n))
            want = [(integrate._norm(s[:n]), integrate._norm(s[n:])) for s in x]
            assert [(a.hex(), b.hex()) for a, b in pairs] == [(a.hex(), b.hex()) for a, b in want]
            rms = [integrate._rms(s).hex() for s in z]
            assert [r.hex() for r in integrate._rms_each(z)] == rms


def _twins(data: dict, t_end: float, n: int):
    """The same data as all constants and as degree-0 polynomials."""
    def build(make):
        return CoefficientSet(n=n, t0=0.0, t_end=t_end,
                              **{name: make(value) for name, value in data.items()})
    return (build(cf.constant), build(lambda value: cf.polynomial([value])))


class TestStorageIndependence:
    """Constant data give the same bits as the same data stored as degree-0
    polynomials: the once-per-run stage values of constants match the
    polynomials' evaluation by window and by step."""

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


def _as_polynomials(cs: CoefficientSet) -> CoefficientSet:
    """The same data with every constant stored as a degree-0 polynomial."""
    def poly(f):
        return cf.polynomial([f.value]) if f.kind == "constant" else f
    return CoefficientSet(n=cs.n, t0=cs.t0, t_end=cs.t_end,
                          **{name: poly(getattr(cs, name)) for name in "PQRS"})


def _spline_twin(cs: CoefficientSet, order: int) -> CoefficientSet:
    """P, Q, R, S sampled on 41 nodes and read through cells of ``order``."""
    nodes = np.linspace(cs.t0, cs.t_end, 41)
    return CoefficientSet(n=cs.n, t0=cs.t0, t_end=cs.t_end, **{
        name: cf.sampled(nodes, getattr(cs, name).eval(nodes), order=order)
        for name in "PQRS"})


def _window_case(name: str):
    """(coefficients, Y0, sample times or None) of a window case."""
    if name.startswith("polynomial"):
        cs, _, _, y0 = gen_satisfying(InstanceSpec(n=int(name[-1]), seed=3))
        return cs, y0, None
    cs, _, _, y0 = gen_satisfying(InstanceSpec(n=2, seed=3))
    if name.startswith("sampled"):
        return _spline_twin(cs, int(name[-1])), y0, None
    if name == "mixed":
        # Q and S constant, P and R polynomials: two evaluation passes
        mixed = CoefficientSet(n=2, t0=cs.t0, t_end=cs.t_end, P=cs.P,
                               Q=cf.constant(cs.Q.eval(0.3)), R=cs.R,
                               S=cf.constant(cs.S.eval(0.1)))
        return mixed, y0, None
    if name == "non_uniform":
        return cs, y0, cs.t0 + (cs.t_end - cs.t0) * np.linspace(0.0, 1.0, 57) ** 1.7
    if name == "close_samples":
        # samples 10 and 11 are closer than the rounding slack 1e-13 * max(1, |t|)
        ts = np.linspace(cs.t0, cs.t_end, 41)
        return cs, y0, np.insert(ts, 11, ts[10] + 5e-14)
    if name == "blow_up":
        cs, y0 = gen_blowup(InstanceSpec(n=2, seed=1, target="blowup", scale=1.5))
        return _as_polynomials(cs), y0, None
    # tanh: P = S = I on [0, 40], the linear flow restarts
    entry = CAT["tanh"]
    cs = entry.cs
    return (_as_polynomials(CoefficientSet(n=1, t0=0.0, t_end=40.0, P=cs.P, Q=cs.Q, R=cs.R,
                                           S=cs.S)), entry.y0, None)


class TestWindow:
    """A step from sample k that hits sample k + 1 reads its stage values from
    a window of such steps evaluated at once; with the window forced to one
    step (``BLOCK_ENTRIES`` of 1), every run gives the same bits."""

    CASES = ("polynomial_n1", "polynomial_n2", "polynomial_n8", "sampled1", "sampled3",
             "mixed", "non_uniform", "close_samples", "blow_up", "tanh")

    @staticmethod
    def runs(cs, y0, ts):
        direct = integrate_riccati_direct(cs, y0, sample_times=ts)
        flow, radon = integrate_linear_system(cs, y0, sample_times=ts)
        lyapunov = integrate_lyapunov_comparison(cs, y0, sample_times=ts)
        return direct, flow, radon, lyapunov

    @pytest.mark.parametrize("case", CASES)
    def test_window_equals_one_step_windows(self, case, monkeypatch):
        cs, y0, ts = _window_case(case)
        direct, flow, radon, lyapunov = self.runs(cs, y0, ts)
        monkeypatch.setattr(mc, "BLOCK_ENTRIES", 1)
        direct_1, flow_1, radon_1, lyapunov_1 = self.runs(cs, y0, ts)
        for a, b in ((direct, direct_1), (radon, radon_1), (lyapunov, lyapunov_1)):
            TestStorageIndependence.assert_same_trajectory(a, b)
        assert flow.times.tobytes() == flow_1.times.tobytes()
        assert flow.phi.tobytes() == flow_1.phi.tobytes()
        assert flow.psi.tobytes() == flow_1.psi.tobytes()
        assert flow.restarts == flow_1.restarts
        if case == "blow_up":
            # the direct run stops inside its first window of 170 steps
            assert direct.status == "blow_up" and direct.times.size < 170
        if case == "tanh":
            assert len(flow.restarts) >= 1
        if case == "close_samples":
            assert direct.times.size == ts.size


def _stepped(cs: CoefficientSet) -> CoefficientSet:
    """The same data with every function of one value stored as an order-1
    sampled function of that value: the flow then takes Runge-Kutta steps
    where the data as given would take the exact route."""
    def stepped(f):
        if not integrate._one_value(f):
            return f
        value = f.eval(cs.t0)
        return cf.sampled([cs.t0, cs.t_end], [value, value], order=1)
    return CoefficientSet(n=cs.n, t0=cs.t0, t_end=cs.t_end,
                          **{name: stepped(getattr(cs, name)) for name in "PQRS"})


def _batch_case(name: str):
    """(coefficients, Y0, sample times or None) of a batch-path case; data
    of one value are stepped (``_stepped``)."""
    if name.startswith("catalog."):
        e = CAT[name[8:]]
        return _stepped(e.cs), e.y0, None
    if name.startswith("blowup"):
        # Phi vanishes between samples: the flow runs through the poles of Y
        cs, y0 = gen_blowup(InstanceSpec(n=int(name[-1]), seed=2, target="blowup", scale=1.5))
        return _stepped(cs), y0, None
    if name.startswith("tanh40"):
        # the flow restarts twice; on 2001 samples its steps hit them, and
        # both restarts fall inside batches
        cs, y0, _ = _window_case("tanh")
        return _stepped(cs), y0, np.linspace(0.0, 40.0, 2001) if name == "tanh40_dense" else None
    if name == "rejected":
        # S jumps from 0 to 40 over [1.03, 1.05]: a step of a batch is rejected there
        jump = cf.sampled([0.0, 1.03, 1.05, 2.0], [[[0.0]], [[0.0]], [[40.0]], [[40.0]]], order=1)
        cs = CoefficientSet(n=1, t0=0.0, t_end=2.0, P=cf.constant([[1.0]]),
                            Q=cf.constant([[0.0]]), R=cf.constant([[0.0]]), S=jump)
        return cs, np.zeros((1, 1)), np.linspace(0.0, 2.0, 41)
    if name == "close_dense":
        # close_samples on 201 samples: a batch crosses the close pair
        cs, y0, _ = _window_case("close_samples")
        ts = np.linspace(cs.t0, cs.t_end, 201)
        return cs, y0, np.insert(ts, 11, ts[10] + 5e-14)
    return _window_case(name)


class TestBatchPath:
    """At small n the flow steps from sample to sample by matrices, in
    batches; forced onto the stage path (``_MAPS_MAX_N`` of 0) it makes the
    same decisions, and its values agree to rounding."""

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_window_maps_match_stepping_by_stages(self, n):
        rng = np.random.default_rng(n)
        p, w = 2 * n, 7
        # H at each step's five distinct stage nodes
        values = (rng.standard_normal((w, 5, p, p)) + 1j * rng.standard_normal((w, 5, p, p)))
        gaps = rng.uniform(1e-3, 0.5, w)
        g, e = integrate._step_maps(values, gaps)
        assert g.shape == (w, 2 * p, 2 * p) and e.shape == (w, p, 2 * p)
        for k in range(w):
            x, f0 = (rng.standard_normal((2, p, n)) + 1j * rng.standard_normal((2, p, n)))
            x_new, f_new, err = integrate._rk_stages(np.matmul, integrate._by_stage(values[k]),
                                                     x, f0, gaps[k])
            z = np.concatenate((x, f0))
            scale = (np.linalg.norm(x) + np.linalg.norm(f0)) * max(
                1.0, gaps[k] * max(np.linalg.norm(v, 2) for v in values[k])) ** 6
            assert np.linalg.norm(g[k] @ z - np.concatenate((x_new, f_new))) <= 1e-13 * scale
            assert np.linalg.norm(e[k] @ z - err) <= 1e-13 * scale

    CASES = (*(f"catalog.{name}" for name in CAT), "blowup_n1", "blowup_n2", "tanh40",
             "tanh40_dense", "rejected", "close_samples", "close_dense")
    #: cases none of whose steps from a sample hits the next: no batch runs
    STAGES_ONLY = ("catalog.care_constant", "tanh40", "close_samples")

    @staticmethod
    def batches(monkeypatch) -> list:
        """(samples handed over, samples taken, restarted) of every
        ``at_samples`` call of the runs that follow."""
        calls, driver = [], integrate._integrate_sampled

        def spy(*args, at_samples=None, **kwargs):
            def seen(k, ys):
                taken, reset = at_samples(k, ys)
                calls.append((len(ys), taken, reset is not None))
                return taken, reset
            return driver(*args, at_samples=seen, **kwargs)

        monkeypatch.setattr(integrate, "_integrate_sampled", spy)
        return calls

    @staticmethod
    def assert_values_agree(flow, traj, flow_s, traj_s) -> int:
        """The states of two runs that sample the same times agree to 1e-12
        of their norm, and Y = Psi Phi^{-1} to 1e-12 of 1 + ||Y|| where Phi
        is well conditioned, ||[Phi; Psi]|| / sigma_min(Phi) <= 100; near a
        pole the states' rounding is amplified by that condition, and the
        bound with it. Returns how many samples are beyond that condition."""
        x, x_s = (np.concatenate((fl.phi, fl.psi), axis=1) for fl in (flow, flow_s))
        size = np.linalg.norm(x_s, axis=(1, 2))
        assert np.all(np.linalg.norm(x - x_s, axis=(1, 2)) <= 1e-12 * size)
        cond = size / np.linalg.svd(flow_s.phi, compute_uv=False)[:, -1]
        cond = cond[np.isin(flow_s.times, traj_s.times)]
        dy = np.linalg.norm(traj.values - traj_s.values, axis=(1, 2))
        bound = 1e-12 * (1 + np.linalg.norm(traj_s.values, axis=(1, 2)))
        mild = cond <= 100
        assert np.all(dy[mild] <= bound[mild])
        assert np.all(dy <= cond * bound)
        return int(traj.times.size - mild.sum())

    @pytest.mark.parametrize("case", CASES)
    def test_batch_and_stage_paths_decide_alike(self, case, monkeypatch):
        cs, y0, ts = _batch_case(case)
        calls = self.batches(monkeypatch)
        flow, traj = integrate_linear_system(cs, y0, sample_times=ts)
        batched = [c for c in calls if c[0] > 1]
        assert bool(batched) == (case not in self.STAGES_ONLY)
        if case.startswith("tanh40"):
            assert len(flow.restarts) == 2
        if case == "tanh40_dense":
            assert sum(restarted for _, _, restarted in batched) == 2
        monkeypatch.setattr(integrate, "_MAPS_MAX_N", 0)
        flow_s, traj_s = integrate_linear_system(cs, y0, sample_times=ts)
        assert traj.times.tobytes() == traj_s.times.tobytes()
        assert traj.status == traj_s.status
        assert flow.restarts == flow_s.restarts
        assert traj.singular_times.tobytes() == traj_s.singular_times.tobytes()
        assert flow.times.tobytes() == flow_s.times.tobytes()
        # the step counts too, but on gen_blowup n = 1, where the paths'
        # rounding moves step-size choices: 254 accepted steps by batches, 257 by stages
        for key in ("steps_rejected",) if case == "blowup_n1" else (
                "nfev", "steps_accepted", "steps_rejected"):
            assert traj.stats[key] == traj_s.stats[key], key
        assert self.assert_values_agree(flow, traj, flow_s, traj_s) <= 2
        if case == "rejected":
            assert traj.stats["steps_rejected"] >= 1
        if case == "catalog.care_constant":
            assert traj.stats["steps_accepted"] > traj.times.size  # steps that do not hit


def _exact_case(name: str):
    """(coefficients, Y0, sample times or None) of a flow whose H takes one
    value over the run."""
    if name.startswith("catalog."):
        e = CAT[name[8:]]
        return e.cs, e.y0, None
    if name.startswith("blowup_n"):
        # Phi vanishes between samples: the flow runs through the poles of Y
        n = int(name[8:])
        cs, y0 = gen_blowup(InstanceSpec(n=n, seed=100 + n, target="blowup", scale=1.5))
        return cs, y0, None
    if name == "growth":
        # Phi = e^{20t}: repeated resets
        return scalar_set(6.0, r=20.0), np.array([[1.0]]), np.linspace(0.0, 6.0, 301)
    if name == "drift":
        # kappa(Phi) = e^{8t}: resets driven by the condition estimate
        zero = cf.constant(np.zeros((2, 2)))
        cs = CoefficientSet(n=2, t0=0.0, t_end=4.0, P=zero, Q=zero,
                            R=cf.constant(np.diag([4.0, -4.0])), S=zero)
        return cs, np.ones((2, 2)), np.linspace(0.0, 4.0, 201)
    if name == "through_pole":
        # y = -tan t on [0, pi]: a singular sample, then the flow past the pole
        return (scalar_set(math.pi, p=1.0, s=-1.0), np.zeros((1, 1)),
                np.linspace(0.0, math.pi, 101))
    if name == "close_samples":
        # samples closer than the Runge-Kutta driver's rounding slack
        e = CAT["tanh"]
        return e.cs, e.y0, np.array([0.0, 1e-14, 1.0, 1.0 + 1e-14, 3.0])
    # tanh on [0, 40]: the flow restarts twice
    cs = CAT["tanh"].cs
    return (CoefficientSet(n=1, t0=0.0, t_end=40.0, P=cs.P, Q=cs.Q, R=cs.R, S=cs.S),
            CAT["tanh"].y0, None)


#: Square complex matrices of order 1..4 with 1-norms up to 50: beyond
#: ``_THETA13`` (5.37) ``_expm`` scales and squares.
_EXPM_ARGS = st.tuples(
    st.integers(1, 4).flatmap(lambda n: hnp.arrays(
        np.complex128, (n, n), elements=st.builds(complex, st.floats(-1, 1), st.floats(-1, 1)))),
    st.floats(0.0, 50.0))


class TestExactFlow:
    """A flow whose H takes one value is exact: X_{k+1} = expm(g_k H) X_k,
    one ``_expm`` per distinct gap g_k. It meets the catalog's closed forms
    to rounding, decides every sample as the Runge-Kutta route does, and
    its bits do not depend on the chunks the samples are decided in."""

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(args=_EXPM_ARGS)
    @example(args=(np.zeros((3, 3), complex), 0.0))
    @example(args=(np.triu(np.ones((4, 4), complex), 1), 50.0))  # nilpotent
    def test_expm_matches_scipy(self, args):
        a, norm = args
        size = np.abs(a).sum(axis=0).max()
        if size > 0:
            a = a * (norm / size)
        want = scipy.linalg.expm(a)
        # relative to ||expm(a)||, the gap grows with ||a||_1: exp's condition
        # at a scalar x is |x|, and each squaring doubles a relative error
        # (20000 draws read at most 6e-15 ||a||_1)
        gap = np.linalg.norm(integrate._expm(a) - want)
        assert gap <= 2e-14 * max(1.0, norm) * np.linalg.norm(want)

    CLOSED_FORMS = {"catalog.tanh": 1e-14, "catalog.linear": 1e-14,
                    "catalog.care_constant": 1e-14, "catalog.cosh_sinh": 1e-14,
                    "tanh40": 1e-14,
                    # the error is set by a sample's distance to the pole at pi / 2
                    "catalog.tan_blowup": 1e-11}

    @pytest.mark.parametrize("case", sorted(CLOSED_FORMS))
    def test_closed_forms(self, case):
        cs, y0, ts = _exact_case(case)
        exact = CAT[case[8:] if case.startswith("catalog.") else "tanh"].exact
        flow, traj = integrate_linear_system(cs, y0, sample_times=ts)
        assert traj.status == "completed" and traj.times.size == flow.times.size
        assert (len(flow.restarts) == 2) == (case == "tanh40")
        error = max(np.linalg.norm(y - exact(t)) / (1 + np.linalg.norm(exact(t)))
                    for t, y in zip(traj.times, traj.values))
        assert error <= self.CLOSED_FORMS[case]
        assert traj.stats["nfev"] == traj.stats["steps_accepted"] == 0

    CASES = (*(f"catalog.{name}" for name in CAT), "blowup_n1", "blowup_n2", "blowup_n8",
             "growth", "drift", "through_pole", "close_samples", "tanh40")

    @pytest.mark.parametrize("case", CASES)
    def test_exact_and_stage_paths_decide_alike(self, case, monkeypatch):
        cs, y0, ts = _exact_case(case)
        flow, traj = integrate_linear_system(cs, y0, sample_times=ts)
        monkeypatch.setattr(integrate, "_one_value", lambda f: False)
        flow_s, traj_s = integrate_linear_system(cs, y0, sample_times=ts)
        assert traj.times.tobytes() == traj_s.times.tobytes()
        assert traj.status == traj_s.status
        assert flow.restarts == flow_s.restarts
        assert traj.singular_times.tobytes() == traj_s.singular_times.tobytes()
        assert flow.times.tobytes() == flow_s.times.tobytes()
        # the values differ by the Runge-Kutta run's error (rtol 1e-9), which
        # the flow's condition amplifies in Y
        x, x_s = (np.concatenate((fl.phi, fl.psi), axis=1) for fl in (flow, flow_s))
        size = np.linalg.norm(x_s, axis=(1, 2))
        assert np.all(np.linalg.norm(x - x_s, axis=(1, 2)) <= 1e-8 * size)
        cond = size / np.linalg.svd(flow_s.phi, compute_uv=False)[:, -1]
        cond = cond[np.isin(flow_s.times, traj_s.times)]
        dy = np.linalg.norm(traj.values - traj_s.values, axis=(1, 2))
        assert np.all(dy <= 1e-9 * cond * (1 + np.linalg.norm(traj_s.values, axis=(1, 2))))
        if case in ("growth", "drift", "tanh40"):
            assert flow.restarts
        if case == "through_pole":
            assert traj.status == "phi_singular"

    @pytest.mark.parametrize("case", ["growth", "drift", "through_pole", "tanh40", "blowup_n8"])
    def test_bits_do_not_depend_on_the_chunks(self, case, monkeypatch):
        cs, y0, ts = _exact_case(case)
        runs = []
        # the default chunks (every sample at n <= 2, 128 samples at n = 8),
        # chunks of one sample and chunks of three
        for entries in (mc.BLOCK_ENTRIES, 1, 3 * 2 * cs.n ** 2):
            monkeypatch.setattr(mc, "BLOCK_ENTRIES", entries)
            runs.append(integrate_linear_system(cs, y0, sample_times=ts))
        (flow, traj), *others = runs
        for flow_1, traj_1 in others:
            TestStorageIndependence.assert_same_trajectory(traj, traj_1)
            assert flow.times.tobytes() == flow_1.times.tobytes()
            assert flow.phi.tobytes() == flow_1.phi.tobytes()
            assert flow.psi.tobytes() == flow_1.psi.tobytes()
            assert flow.restarts == flow_1.restarts


class TestEvaluationCount:
    """All-constant data are evaluated once per run. Other data are evaluated
    at t0 and at the starting-step probe, once per window of sample-to-sample
    steps and once per other step (at its five distinct stage times)."""

    @pytest.fixture
    def calls(self, monkeypatch):
        sizes = []  # the number of times of each evaluation
        evaluate_passes = cf.evaluate_passes

        def counted(*args):
            sizes.append(args[-1].size)
            return evaluate_passes(*args)
        monkeypatch.setattr(cf, "evaluate_passes", counted)
        return sizes

    def test_constant_run_does_not_count_its_steps(self, calls):
        e = CAT["tanh"]
        assert all(f.kind == "constant" for f in (e.cs.P, e.cs.Q, e.cs.R, e.cs.S))
        per_run = []
        for samples in (2, 201):
            calls.clear()
            ts = np.linspace(e.cs.t0, e.cs.t_end, samples)
            traj = integrate_riccati_direct(e.cs, e.y0, sample_times=ts)
            per_run.append((len(calls), traj.stats["steps_accepted"]))
        (few, few_steps), (many, many_steps) = per_run
        assert few == many and few_steps < many_steps

    def test_polynomial_run_evaluates_once_per_window(self, calls):
        cs, _, _, y0 = gen_satisfying(InstanceSpec(n=2, seed=3, horizon=2.0))
        traj = integrate_riccati_direct(cs, y0)
        stats = traj.stats
        # the first sample interval takes two steps and every later one a
        # single step from its sample: 199 sample-to-sample steps
        assert stats["steps_rejected"] == 0 and stats["steps_accepted"] == 201
        hits, others = 199, 2
        span = mc.BLOCK_ENTRIES // (6 * 4 * 2 ** 2)  # steps per window: 170
        windows = -(-hits // span)
        assert len(calls) == 2 + windows + others
        # t0 and the probe, the two other steps, then the windows in order
        assert calls == [1, 1, 5, 5, 5 * span, 5 * (hits - span)]

    def test_steps_shorter_than_the_spacing_evaluate_once_each(self, calls):
        cs, _, _, y0 = gen_satisfying(InstanceSpec(n=2, seed=3, horizon=2.0))
        ts = np.linspace(cs.t0, cs.t_end, 11)
        traj = integrate_riccati_direct(cs, y0, IntegratorOptions(rtol=1e-12), ts)
        stats = traj.stats
        # no step spans a sample interval, so none reads a window
        assert stats["h_max"] < (cs.t_end - cs.t0) / 10
        assert len(calls) == 2 + stats["steps_accepted"] + stats["steps_rejected"]
        assert calls == [1, 1] + [5] * (len(calls) - 2)


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

    def test_a_trajectory_off_the_flow_samples_is_refused(self):
        e = CAT["cosh_sinh"]
        flow, _ = integrate_linear_system(e.cs, e.y0, sample_times=np.linspace(0.0, 2.0, 201))
        other = integrate_riccati_direct(e.cs, e.y0, sample_times=np.linspace(0.0, 2.0, 101) ** 1.5
                                         / 2.0 ** 0.5)
        with pytest.raises(IntegrationError, match="is not a sample of the flow"):
            liouville_check(flow, e.cs, other)

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
