"""Acceptance suite.

One test per acceptance criterion, each pinned to its stated tolerance
and runtime budget and printing a pass/fail line (visible with
``pytest -s`` or in captured output). Expected values come from closed
forms or independent oracles, never from the code paths under test.
"""

import math
import time

import numpy as np

import frame_oracle
from riccati_cert import coefficients as cf
from riccati_cert import matrix_core as mc
from riccati_cert.coefficients import CoefficientSet
from riccati_cert.criteria import (
    GridSpec,
    check_gauge_criterion,
)
from riccati_cert.instances import (
    InstanceSpec,
    blowup_escape_time,
    canonical_catalog,
    gen_blowup,
    gen_comparison,
    gen_satisfying,
)
from riccati_cert.integrate import (
    integrate_linear_system,
    integrate_lyapunov_comparison,
    integrate_riccati_direct,
    liouville_check,
)
from riccati_cert.verify import verify_hermitian_bound, verify_sandwich

CAT = canonical_catalog()


class _Budget:
    def __init__(self, number, name, limit_s):
        self.number, self.name, self.limit = number, name, limit_s
        self.start = time.monotonic()

    def done(self):
        elapsed = time.monotonic() - self.start
        print(f"[acceptance] {self.number}. {self.name}: PASS "
              f"({elapsed:.2f}s < {self.limit:.0f}s)")
        assert elapsed < self.limit, f"runtime {elapsed:.1f}s exceeds {self.limit}s budget"


def _rand(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_01_tanh_oracle():
    budget = _Budget(1, "tanh closed-form oracle", 1.0)
    e = CAT["tanh"]
    ts = np.linspace(0.0, 1.0, 11)
    traj = integrate_riccati_direct(e.cs, e.y0, sample_times=ts)
    assert traj.status == "completed"
    assert abs(traj.values[-1][0, 0] - math.tanh(1.0)) <= 1e-8
    budget.done()


def test_02_escape_time_oracle():
    budget = _Budget(2, "finite-escape scaling oracle", 5.0)
    for c in (0.25, 1.0, 4.0):
        spec = InstanceSpec(n=1, seed=0, scale=c, target="blowup",
                            horizon=math.pi / (2 * math.sqrt(c)) + 0.5)
        cs, y0 = gen_blowup(spec)
        traj = integrate_riccati_direct(cs, y0)
        assert traj.status == "blow_up", c
        assert abs(traj.t_escape - blowup_escape_time(spec)) <= 1e-3, c
    budget.done()


def test_03_certified_instances_hold_the_bound():
    budget = _Budget(3, "end-to-end guarantee on 200 certified instances", 120.0)
    count = 0
    for n in (1, 2, 3, 4):
        for seed in range(50):
            cs, lam, mu, y0 = gen_satisfying(InstanceSpec(n=n, seed=seed, horizon=5.0))
            ts = np.linspace(cs.t0, cs.t_end, 101)
            traj = integrate_riccati_direct(cs, y0, sample_times=ts)
            assert traj.status == "completed", (n, seed, traj.status)
            rep = verify_hermitian_bound(traj, lam, tol=1e-6)
            assert rep.passed, (n, seed, rep.min_value)
            count += 1
    assert count == 200
    budget.done()


def test_04_comparison_sandwich():
    budget = _Budget(4, "two-sided comparison bound on 100 instances", 60.0)
    count = 0
    for n in (1, 2, 3, 4):
        for seed in range(25):
            cs, y0 = gen_comparison(InstanceSpec(n=n, seed=seed, target="comparison",
                                                 horizon=5.0))
            ts = np.linspace(cs.t0, cs.t_end, 101)
            y = integrate_riccati_direct(cs, y0, sample_times=ts)
            assert y.status == "completed", (n, seed)
            yt = integrate_lyapunov_comparison(cs, y0, sample_times=ts)
            rep = verify_sandwich(y, yt, tol=1e-6)
            assert rep.passed, (n, seed, rep.lower_min, rep.upper_min)
            count += 1
    assert count == 100
    budget.done()


def test_05_trace_lemma_suite():
    budget = _Budget(5, "trace and congruence identities, 1000 draws each", 10.0)
    rng = np.random.default_rng(2024)

    for _ in range(1000):  # commutation
        n = int(rng.integers(1, 7))
        a, b = _rand(rng, n), _rand(rng, n)
        lhs = np.trace(a @ b)
        assert abs(lhs - np.trace(b @ a)) <= 1e-12 * (1 + abs(lhs))

    for _ in range(1000):  # PSD pair: real nonnegative trace
        n = int(rng.integers(1, 7))
        h1 = (lambda g: g.conj().T @ g)(_rand(rng, n))
        h2 = (lambda g: g.conj().T @ g)(_rand(rng, n))
        tr = np.trace(h1 @ h2)
        assert tr.real >= -1e-10
        assert abs(tr.imag) <= 1e-10 * np.linalg.norm(h1) * np.linalg.norm(h2)

    for _ in range(1000):  # Hermitian x skew-Hermitian: real part vanishes
        n = int(rng.integers(1, 7))
        h = _rand(rng, n)
        h = (h + h.conj().T) / 2
        g = _rand(rng, n)
        k = (g - g.conj().T) / 2
        tr = np.trace(h @ k)
        assert abs(tr.real) <= 1e-12 * np.linalg.norm(h) * np.linalg.norm(k)

    for _ in range(1000):  # congruence preserves PSD
        n = int(rng.integers(1, 7))
        h = (lambda g: g.conj().T @ g)(_rand(rng, n))
        v = _rand(rng, n)
        m = v @ h @ v.conj().T
        norm2 = np.linalg.norm((m + m.conj().T) / 2, 2)
        lo, ok, _ = mc._psd_measure(m[None], mc.DEFAULT_TOL)
        assert ok[0] and lo[0] >= -1e-9 * max(norm2, 1.0)

    budget.done()


def test_06_determinant_identity():
    budget = _Budget(6, "flow determinant identity (both forms)", 30.0)
    # closed-form flow: det phi = cosh t, exponent integrand tanh t
    e = CAT["cosh_sinh"]
    ts = np.linspace(0.0, 2.0, 401)
    flow, traj = integrate_linear_system(e.cs, e.y0, sample_times=ts)
    rep = liouville_check(flow, e.cs, traj)
    assert rep.det_form_error <= 1e-6
    assert rep.modulus_form_error <= 1e-6

    # 20 seeded instances whose flow provably stays nonsingular
    for seed in range(20):
        cs, lam, mu, y0 = gen_satisfying(InstanceSpec(n=2, seed=seed, horizon=2.0))
        ts = np.linspace(cs.t0, cs.t_end, 401)
        flow, traj = integrate_linear_system(cs, y0, sample_times=ts)
        assert traj.status == "completed", seed
        rep = liouville_check(flow, cs, traj)
        assert rep.det_form_error <= 1e-6, (seed, rep.det_form_error)
        assert rep.modulus_form_error <= 1e-6, (seed, rep.modulus_form_error)
    budget.done()


def test_07_sqrt_frame_source_algebra():
    budget = _Budget(7, "frame source identity on 100 skew instances", 30.0)
    rng = np.random.default_rng(4096)
    zero = lambda n: cf.constant(np.zeros((n, n)))
    for _ in range(100):
        n = int(rng.integers(1, 5))
        g = _rand(rng, n)
        p = g.conj().T @ g + np.eye(n)
        q = _rand(rng, n)
        g2 = _rand(rng, n)
        k = (g2 - g2.conj().T) / 2
        nu_val = complex(rng.standard_normal(), rng.standard_normal())
        sp = mc._hermitian_sqrt(p, "test")
        r = q.conj().T - sp @ (2 * k - nu_val * np.eye(n)) @ np.linalg.inv(sp)
        s = _rand(rng, n)
        cs = CoefficientSet(n=n, t0=0.0, t_end=1.0, P=cf.constant(p),
                            Q=cf.constant(q), R=cf.constant(r), S=cf.constant(s))
        nu = cf.constant(nu_val, scalar=True)
        t_term, c = frame_oracle.frame(cs, nu, 0.5)
        assert np.linalg.norm(t_term + t_term.conj().T) <= 1e-9 * (1 + np.linalg.norm(t_term))
        d = frame_oracle.source_term(cs, nu, 0.5)
        lhs = np.linalg.eigvalsh((c + c.conj().T) / 2)[0]
        rhs = np.linalg.eigvalsh(-(d + d.conj().T))[0]
        assert abs(lhs - rhs) <= 1e-7, abs(lhs - rhs)
    budget.done()


def test_08_cross_method_agreement_and_continuation():
    budget = _Budget(8, "direct vs linear-flow agreement + pole continuation", 60.0)

    def agree(cs, y0, ts):
        direct = integrate_riccati_direct(cs, y0, sample_times=ts)
        assert direct.status == "completed"
        _, radon = integrate_linear_system(cs, y0, sample_times=ts)
        assert radon.status == "completed"
        for k in range(ts.size):
            diff = np.linalg.norm(direct.values[k] - radon.values[k])
            assert diff <= 1e-6 * (1 + np.linalg.norm(direct.values[k]))

    for name in ("tanh", "linear", "care_constant", "cosh_sinh"):
        e = CAT[name]
        agree(e.cs, e.y0, np.linspace(e.cs.t0, e.cs.t_end, 101))

    for n in (1, 2, 3, 4):
        for seed in range(6):
            cs, lam, mu, y0 = gen_satisfying(InstanceSpec(n=n, seed=seed, horizon=3.0))
            agree(cs, y0, np.linspace(cs.t0, cs.t_end, 61))

    # the linear flow continues through the -tan pole and recovers Y
    cs = CoefficientSet(n=1, t0=0.0, t_end=math.pi,
                        P=cf.constant([[1.0]]), Q=cf.constant([[0.0]]),
                        R=cf.constant([[0.0]]), S=cf.constant([[-1.0]]))
    flow, traj = integrate_linear_system(cs, np.zeros((1, 1)),
                                         sample_times=np.linspace(0.0, math.pi, 101))
    recovered = [(t, traj.values[k][0, 0]) for k, t in enumerate(traj.times)
                 if t > math.pi / 2 + 0.05]
    assert recovered
    for t, y in recovered:
        exact = -math.tan(t)
        assert abs(y - exact) <= 1e-6 * (1 + abs(exact))
    budget.done()


def test_09_constructive_soundness():
    budget = _Budget(9, "generator outputs certified by the independent checker", 30.0)
    for n in (1, 2, 3, 4):
        for seed in range(50):
            cs, lam, mu, y0 = gen_satisfying(InstanceSpec(n=n, seed=seed, horizon=5.0))
            rep = check_gauge_criterion(cs, lam, y0, GridSpec.for_set(cs, 201))
            assert rep.holds, (n, seed)
            assert rep.condition("scalar_shift").worst_value <= 1e-9, (n, seed)
    budget.done()
