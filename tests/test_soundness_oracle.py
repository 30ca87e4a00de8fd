"""Soundness oracle: no criterion may say "holds" where the exact flow fails.

For constant coefficients the linear flow is exact: with
H = [[R, P], [S, -Q]], [Phi; Psi](t) = expm((t - t0) H) [I; Y0], and
Y = Psi Phi^{-1} solves Y' + Y P Y + Q Y + Y R - S = 0 from Y0 exactly as
long as Phi stays invertible. The oracle evaluates that flow with
``scipy.linalg.expm`` on a fine grid, sharing no code with the
Runge-Kutta integrators.

Hypothesis draws constant instances with n <= 4 of the shape both
criteria speak about: P = A*A, R = Q* + mu I with real mu and
S = B*B + c I. Wherever ``theorem3.1`` (zero gauge) or ``theorem1.1``
holds, Phi must stay well conditioned on the whole grid and
Y + Y* >= 0 (up to rounding) must hold there, and the direct and radon
integrators must reproduce the flow. The instance generators must
always satisfy the criterion they are built for.
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
from riccati_cert.integrate import integrate_linear_system, integrate_riccati_direct

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
    """(cs, Y0) with P = A*A, Q, R = Q* + mu I, S = B*B + c I and
    Y0 = G*G + d I + K for a skew-Hermitian K that is zero in about half
    the draws (so that theorem1.1, which wants Y0 >= 0, can hold)."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mu = draw(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)))
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
    return cs, y0


def exact_flow(cs, y0, ts):
    """(Phi, Psi) at the times ts from expm((t - t0) H) [I; Y0]."""
    p, q, r, s = (f.eval(cs.t0) for f in (cs.P, cs.Q, cs.R, cs.S))
    h = np.block([[r, p], [s, -q]])
    x = expm((ts - cs.t0)[:, None, None] * h) @ np.vstack([np.eye(cs.n), y0])
    return x[:, :cs.n], x[:, cs.n:]


def oracle_solution(cs, y0, ts):
    """Y on the grid ts, after asserting that Phi stays invertible there and
    that Y + Y* >= 0 up to rounding."""
    phi, psi = exact_flow(cs, y0, ts)
    ratio = (np.linalg.svd(phi, compute_uv=False)[:, -1]
             / np.linalg.norm(np.concatenate([phi, psi], axis=1), 2, axis=(1, 2)))
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
        cs, y0 = instance
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

    def test_draws_reach_both_criteria(self):
        # the property above is vacuous unless the draws certify instances
        seen = set()

        @settings(derandomize=True, deadline=None, max_examples=40)
        @given(constant_instances())
        def collect(instance):
            seen.update(_certified(*instance))

        collect()
        assert seen == {"theorem3.1", "theorem1.1"}

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
