"""Soundness oracle: no criterion may say "holds" where the exact flow fails.

For constant coefficients the linear flow is exact: with
H = [[R, P], [S, -Q]], [Phi; Psi](t) = expm((t - t0) H) [I; Y0], and
Y = Psi Phi^{-1} solves Y' + Y P Y + Q Y + Y R - S = 0 from Y0 exactly as
long as Phi stays invertible. The oracle evaluates that flow with
``scipy.linalg.expm`` on a fine grid, sharing no code with the
Runge-Kutta integrators.

Hypothesis draws constant instances with n <= 4 of the shape both
criteria speak about: P = A*A, R = Q* + mu I and S = B*B + c I, where mu
is complex, a + ib with b in {0, +-1e-12, +-0.3}, in about half the draws.
Wherever ``theorem3.1`` (zero gauge) or ``theorem1.1`` holds, Phi must
stay well conditioned on the whole grid and Y + Y* >= 0 (up to rounding)
must hold there, and the direct and radon integrators must reproduce the
flow. A shift with |Im mu| > tol (1 + |mu|) must fail theorem3.1's
``real_shift``. The instance generators must always satisfy the criterion
they are built for.

On the constant blow-up family the flow is Phi = cos(sqrt(c) (t - t0)) I,
and the zeros of det Phi, confirmed on the expm flow, must be bracketed:
the direct integration escapes at the first zero, and the linear flow
marks a sample singular exactly where a zero is a sample time.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from riccati_cert import coefficients as cf
from riccati_cert.coefficients import CoefficientSet
from riccati_cert.criteria import run_criterion
from riccati_cert.instances import InstanceSpec, gen_blowup, gen_comparison, gen_satisfying
from riccati_cert.integrate import (
    IntegratorOptions,
    integrate_linear_system,
    integrate_riccati_direct,
)
from riccati_cert.matrix_core import DEFAULT_TOL

ORACLE = settings(derandomize=True, deadline=None, max_examples=40,
                  suppress_health_check=[HealthCheck.too_slow])

#: Fine grid of the exact flow; the integrators are compared at every
#: SAMPLE_STRIDE-th point of it.
FLOW_POINTS = 801
SAMPLE_STRIDE = 40
#: Least sigma_min(Phi) / ||[Phi; Psi]||_2 accepted on the grid: the draws
#: keep ||H|| t_end below about 7, so an invertible flow stays far above it.
MIN_PHI_RATIO = 1e-8


def _matrix(rng, n, scale):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * g / np.linalg.norm(g)


@st.composite
def constant_instances(draw):
    """(cs, Y0, mu) with P = A*A, Q, R = Q* + mu I, S = B*B + c I and
    Y0 = G*G + d I + K for a skew-Hermitian K that is zero in about half
    the draws (so that theorem1.1, which wants Y0 >= 0, can hold); mu has
    an imaginary part from {0, +-1e-12, +-0.3} in about half the draws."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mu = draw(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)))
    if draw(st.booleans()):
        mu += 1j * draw(st.sampled_from([0.0, 1e-12, -1e-12, 0.3, -0.3]))
    c = draw(st.floats(-0.5, 0.5))
    d = draw(st.floats(-0.5, 1.0))
    skew = draw(st.booleans())
    t_end = draw(st.floats(0.5, 2.0))
    a, q, b, g, k = (_matrix(rng, n, 1.0) for _ in range(5))
    eye = np.eye(n)
    p, s = a.conj().T @ a, b.conj().T @ b + c * eye
    y0 = g.conj().T @ g + d * eye + ((k - k.conj().T) / 2 if skew else 0.0)
    cs = CoefficientSet(n=n, t0=0.0, t_end=t_end, P=cf.constant(p), Q=cf.constant(q),
                        R=cf.constant(q.conj().T + mu * eye), S=cf.constant(s))
    return cs, y0, mu


def exact_flow(cs, y0, ts):
    """(Phi, Psi) at the times ts from expm((t - t0) H) [I; Y0]."""
    p, q, r, s = (f.eval(cs.t0) for f in (cs.P, cs.Q, cs.R, cs.S))
    h = np.block([[r, p], [s, -q]])
    x = expm((ts - cs.t0)[:, None, None] * h) @ np.vstack([np.eye(cs.n), y0])
    return x[:, :cs.n], x[:, cs.n:]


def flow_ratio(cs, y0, ts):
    """sigma_min(Phi) / ||[Phi; Psi]||_2 of the exact flow at the times ts."""
    phi, psi = exact_flow(cs, y0, ts)
    return (np.linalg.svd(phi, compute_uv=False)[:, -1]
            / np.linalg.norm(np.concatenate([phi, psi], axis=1), 2, axis=(1, 2)))


def oracle_solution(cs, y0, ts):
    """Y on the grid ts, after asserting that Phi stays invertible there and
    that Y + Y* >= 0 up to rounding."""
    phi, psi = exact_flow(cs, y0, ts)
    ratio = flow_ratio(cs, y0, ts)
    k = int(np.argmin(ratio))
    assert ratio[k] >= MIN_PHI_RATIO, f"Phi nearly singular at t = {ts[k]}"
    y = np.linalg.solve(phi.swapaxes(1, 2), psi.swapaxes(1, 2)).swapaxes(1, 2)
    herm = y + y.conj().swapaxes(1, 2)
    lo = np.linalg.eigvalsh(herm)[:, 0]
    scale = 1.0 + np.linalg.norm(y, 2, axis=(1, 2))
    k = int(np.argmin(lo / scale))
    assert lo[k] >= -1e-9 * scale[k], f"Y + Y* has eigenvalue {lo[k]:.3e} at t = {ts[k]}"
    return y


def _certified(cs, y0):
    return [name for name in ("theorem3.1", "theorem1.1") if run_criterion(name, cs, y0).holds]


class TestConstantFlows:
    @ORACLE
    @given(constant_instances())
    def test_certified_instances_keep_the_bound_and_the_integrators_agree(self, instance):
        cs, y0, _ = instance
        if not _certified(cs, y0):
            return
        ts = np.linspace(cs.t0, cs.t_end, FLOW_POINTS)
        y = oracle_solution(cs, y0, ts)
        samples = ts[::SAMPLE_STRIDE]
        want = y[::SAMPLE_STRIDE]
        tol = 1e-6 * (1.0 + np.abs(want).max())
        direct = integrate_riccati_direct(cs, y0, sample_times=samples)
        _, radon = integrate_linear_system(cs, y0, sample_times=samples)
        for traj in (direct, radon):
            assert traj.status == "completed", traj.method
            assert np.array_equal(traj.times, samples), traj.method
            assert np.abs(traj.values - want).max() <= tol, traj.method

    @ORACLE
    @given(constant_instances())
    def test_a_complex_shift_fails_real_shift(self, instance):
        cs, y0, mu = instance
        if abs(mu.imag) > DEFAULT_TOL * (1.0 + abs(mu)):
            failed = run_criterion("theorem3.1", cs, y0).failed_conditions()
            assert "real_shift" in [rec.name for rec in failed]

    def test_draws_reach_both_criteria(self):
        # the properties above are vacuous unless the draws certify instances,
        # one of them with an imaginary part of 1e-12 in its shift, and
        # draw shifts that real_shift refuses
        seen = set()

        @settings(derandomize=True, deadline=None, max_examples=40)
        @given(constant_instances())
        def collect(instance):
            cs, y0, mu = instance
            certified = _certified(cs, y0)
            seen.update(certified)
            if abs(mu.imag) == 1e-12 and certified:
                seen.add("tiny imaginary shift certified")
            if abs(mu.imag) == 0.3:
                seen.add("complex shift")

        collect()
        assert seen == {"theorem3.1", "theorem1.1", "tiny imaginary shift certified",
                        "complex shift"}

    def test_oracle_catches_a_blow_up(self):
        # Y = -tan(t): Phi = cos(t) vanishes at pi/2 inside [0, 2]
        cs, y0 = gen_blowup(InstanceSpec(n=2, seed=0, horizon=2.0, target="blowup"))
        with pytest.raises(AssertionError):
            oracle_solution(cs, y0, np.linspace(cs.t0, cs.t_end, FLOW_POINTS))


class TestGeneratorsSatisfyTheirCriterion:
    @ORACLE
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           horizon=st.floats(0.5, 10.0), scale=st.floats(0.1, 4.0))
    def test_gen_satisfying_passes_theorem_3_1(self, n, seed, horizon, scale):
        cs, lam, _, y0 = gen_satisfying(InstanceSpec(n=n, seed=seed, horizon=horizon,
                                                     scale=scale))
        rep = run_criterion("theorem3.1", cs, y0, lam=lam)
        assert rep.holds, [rec for rec in rep.conditions if not rec.passed]

    @ORACLE
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           horizon=st.floats(0.5, 10.0), scale=st.floats(0.1, 4.0))
    def test_gen_comparison_passes_theorem_1_1(self, n, seed, horizon, scale):
        cs, y0 = gen_comparison(InstanceSpec(n=n, seed=seed, horizon=horizon, scale=scale,
                                             target="comparison"))
        rep = run_criterion("theorem1.1", cs, y0)
        assert rep.holds, [rec for rec in rep.conditions if not rec.passed]


#: Largest distance from a zero of det Phi at which the direct integration
#: may stop short of it: its norm cap 1e8 on ||Y||_F ~ sqrt(n) / (z - t)
#: is reached within 2e-8 of the pole.
ESCAPE_GAP = 1e-7


def det_phi_zeros(cs, y0, scale):
    """The zeros of det Phi in (t0, t_end) of a gen_blowup instance: its
    closed-form candidates t0 + (k + 1/2) pi / sqrt(c), each checked to be a
    zero of the expm flow, with no other dip of the flow on the fine grid."""
    half_period = np.pi / np.sqrt(scale)
    zeros = cs.t0 + (np.arange(int(cs.span / half_period) + 1) + 0.5) * half_period
    zeros = zeros[zeros < cs.t_end]
    if zeros.size:
        assert flow_ratio(cs, y0, zeros).max() <= 1e-12
    ts = np.linspace(cs.t0, cs.t_end, FLOW_POINTS)
    dips = ts[flow_ratio(cs, y0, ts) < 1e-2]
    assert all(np.abs(zeros - t).min() < 0.02 * half_period for t in dips)
    return zeros


class TestBlowUpBracket:
    @ORACLE
    @given(n=st.integers(1, 4), scale=st.floats(0.25, 9.0), t0=st.floats(-2.0, 2.0),
           horizon=st.floats(0.5, 6.0), rtol=st.sampled_from([1e-6, 1e-9, 1e-12]))
    def test_escape_and_singular_times_bracket_the_zeros(self, n, scale, t0, horizon, rtol):
        cs, y0 = gen_blowup(InstanceSpec(n=n, seed=0, t0=t0, horizon=horizon, scale=scale,
                                         target="blowup"))
        zeros = det_phi_zeros(cs, y0, scale)
        # a uniform grid with every zero as a sample time (grid points near one dropped)
        grid = np.linspace(cs.t0, cs.t_end, 41)
        near = np.abs(grid[:, None] - zeros[None, :]).min(axis=1, initial=np.inf) < 1e-3
        samples = np.sort(np.concatenate([grid[~near], zeros]))
        opts = IntegratorOptions(rtol=rtol)
        direct = integrate_riccati_direct(cs, y0, opts, samples)
        _, radon = integrate_linear_system(cs, y0, opts, samples)
        if not zeros.size:
            assert direct.status == radon.status == "completed"
            return
        assert direct.status == "blow_up"
        # within the integration error of the first zero, or just short of it
        assert abs(direct.t_escape - zeros[0]) <= rtol * (1.0 + abs(zeros[0])) + ESCAPE_GAP
        assert radon.status == "phi_singular"
        assert np.array_equal(radon.singular_times, zeros)

    def test_draws_reach_several_zeros(self):
        # the bracket above is vacuous unless the draws cross zeros, and several
        seen = []

        @settings(derandomize=True, deadline=None, max_examples=40)
        @given(scale=st.floats(0.25, 9.0), t0=st.floats(-2.0, 2.0), horizon=st.floats(0.5, 6.0))
        def collect(scale, t0, horizon):
            cs, y0 = gen_blowup(InstanceSpec(n=1, seed=0, t0=t0, horizon=horizon, scale=scale,
                                             target="blowup"))
            seen.append(det_phi_zeros(cs, y0, scale).size)

        collect()
        assert 0 in seen and max(seen) >= 3
