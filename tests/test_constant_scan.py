"""Criterion scans on all-constant data run at t0 alone.

The conditions are pointwise in t, so where every function a scan reads is
a ``ConstantFunction`` one point decides the whole interval. The same data
stored as degree-0 polynomials take the full grid path; both must give the
same report bytes, the same skew gauge and the same refusal. ``_scan``
decides this from its evaluator and its per-point stacks: a trajectory scan
slices the samples, so it scans every block even on constant data.
"""

import json

import numpy as np
import pytest

from riccati_cert import coefficients as cf
from riccati_cert import matrix_core as mc
from riccati_cert.coefficients import CoefficientSet
from riccati_cert.criteria import (
    CRITERION_NAMES,
    GridSpec,
    build_skew_gauge,
    run_criterion,
)
from riccati_cert.exceptions import NotPositiveDefiniteError
from riccati_cert.instances import InstanceSpec, gen_blowup
from riccati_cert.integrate import (
    integrate_linear_system,
    integrate_lyapunov_comparison,
    integrate_riccati_direct,
    liouville_check,
)
from riccati_cert.verify import eigen_monitor, residual_series, verify_sandwich


def _blowup(n):
    """The blowup family with constant gauges: a complex L, a real mu and a
    complex nu (which fails real_shift)."""
    cs, y0 = gen_blowup(InstanceSpec(n=n, seed=100 + n, target="blowup", scale=1.5))
    rng = np.random.default_rng(n)
    lam = cf.constant(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return cs, y0, {"lam": lam, "mu": cf.constant(0.25, scalar=True),
                    "nu": cf.constant(0.5 + 0.25j, scalar=True)}


def _scalar_set(p):
    zero = cf.constant([[0.0]])
    return CoefficientSet(n=1, t0=0.0, t_end=1.0, P=cf.constant([[p]]), Q=zero, R=zero,
                          S=cf.constant([[1.0]]))


def _indefinite_p():
    """P = diag(1, -0.5) on [0.3, 1.3]: positive definite nowhere."""
    rng = np.random.default_rng(7)
    q = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    cs = CoefficientSet(n=2, t0=0.3, t_end=1.3, P=cf.constant(np.diag([1.0, -0.5])),
                        Q=cf.constant(q), R=cf.constant(q.conj().T + np.diag([0.0, 0.1j])),
                        S=cf.constant(np.eye(2)))
    return cs, np.eye(2), {"mu": cf.constant(0.25, scalar=True)}


CASES = {
    **{f"blowup.n{n}": (lambda n=n: _blowup(n)) for n in (1, 2, 8)},
    # no grid point has P > 0: the frame witnesses are left out
    "p_zero": lambda: (_scalar_set(0.0), np.eye(1), {}),
    # Y0 + Y0* overflows in the initial clause
    "y0_huge": lambda: (_scalar_set(1.0), np.array([[1e308]]), {}),
    # ||P||^2 overflows in cor3.2's sqrt(P(t0))
    "p_huge": lambda: (_scalar_set(1e200), np.eye(1), {}),
    "p_indefinite": _indefinite_p,
}


def _as_poly0(f):
    """The same value as a degree-0 polynomial, which takes the grid path."""
    return cf.polynomial([f.value], scalar=f.is_scalar)


def _poly0_twin(cs, gauges):
    twin = CoefficientSet(n=cs.n, t0=cs.t0, t_end=cs.t_end,
                          **{k: _as_poly0(getattr(cs, k)) for k in ("P", "Q", "R", "S")})
    # a gauge left out is the zero constant; the twin states it as a polynomial
    zero = {"lam": cf.constant(np.zeros((cs.n, cs.n))), "mu": cf.constant(0.0, scalar=True),
            "nu": cf.constant(0.0, scalar=True)}
    return twin, {k: _as_poly0(gauges.get(k, f)) for k, f in zero.items()}


def _skew_gauge(cs, mu, grid):
    """build_skew_gauge's spline arrays and record, or its refusal."""
    try:
        lam0, rec = build_skew_gauge(cs, mu, grid)
    except NotPositiveDefiniteError as exc:
        return str(exc), exc.min_eigenvalue
    return (lam0.times.tobytes(), lam0.values.tobytes(), lam0.node_derivatives.tobytes(),
            lam0.cells.tobytes(), lam0.slope_cells.tobytes(), rec)


@pytest.mark.parametrize("num_points", [2, 1001, 4097])
@pytest.mark.parametrize("case", sorted(CASES))
def test_constant_storage_matches_the_grid_path(case, num_points):
    cs, y0, gauges = CASES[case]()
    twin, twin_gauges = _poly0_twin(cs, gauges)
    grid = GridSpec.for_set(cs, num_points)
    if case == "blowup.n8" and num_points > 2:
        # several blocks, the last one short
        assert len(mc.block_slices(num_points, cs.n)) > 1
        assert num_points % (mc.BLOCK_ENTRIES // cs.n ** 2) != 0
    for name in CRITERION_NAMES:
        got = run_criterion(name, cs, y0, grid=grid, **gauges)
        want = run_criterion(name, twin, y0, grid=grid, **twin_gauges)
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict()), name
    assert _skew_gauge(cs, gauges.get("mu"), grid) == _skew_gauge(twin, twin_gauges["mu"], grid)


@pytest.mark.parametrize("case", ["p_zero", "p_indefinite"])
def test_skew_gauge_refusal_names_t0(case):
    cs, _, gauges = CASES[case]()
    with pytest.raises(NotPositiveDefiniteError, match=rf"^P\({cs.t0}\) is not positive definite"):
        build_skew_gauge(cs, gauges.get("mu"), GridSpec.for_set(cs, 1001))


class TestOneEvaluationOfOnePoint:
    """On constant data each criterion evaluates its coefficients once, at
    one time, and every eigenvalue solve sees one time point of each stack."""

    @pytest.fixture
    def seen(self, monkeypatch):
        sizes = {"evaluator": [], "eigvals": []}
        evaluator, eigvals = cf.stacked_evaluator, mc._hermitian_eigvals

        def spy_evaluator(functions, derivatives=()):
            values = evaluator(functions, derivatives)

            def spied(ts):
                sizes["evaluator"].append(ts.size)
                return values(ts)

            spied.constant = values.constant
            return spied

        def spy_eigvals(context, *hs):
            # one solve may measure several stacks: count time points, not matrices
            sizes["eigvals"].extend(len(h) for h in hs)
            return eigvals(context, *hs)

        monkeypatch.setattr(cf, "stacked_evaluator", spy_evaluator)
        monkeypatch.setattr(mc, "_hermitian_eigvals", spy_eigvals)
        return sizes

    @pytest.mark.parametrize("check", [*CRITERION_NAMES, "skew_gauge"])
    def test_constant_data_evaluate_one_point(self, seen, check):
        cs, y0, gauges = _blowup(8)
        grid = GridSpec.for_set(cs, 1001)
        assert len(mc.block_slices(grid.num_points, cs.n)) > 1
        if check == "skew_gauge":
            build_skew_gauge(cs, gauges["mu"], grid)
        else:
            run_criterion(check, cs, y0, grid=grid, **gauges)
        assert seen["evaluator"] == [1]
        assert set(seen["eigvals"]) == {1}

    def test_degree_0_polynomials_scan_the_grid(self, seen):
        cs, y0, gauges = _blowup(8)
        twin, twin_gauges = _poly0_twin(cs, gauges)
        grid = GridSpec.for_set(cs, 1001)
        run_criterion("theorem3.1", twin, y0, grid=grid, **twin_gauges)
        assert len(seen["evaluator"]) > 1 and sum(seen["evaluator"]) == 1001
        assert max(seen["eigvals"]) > 1


class TestTheScanDecides:
    """``_scan`` runs its block at t0 alone exactly when its evaluator is
    constant and it slices no per-point stack. Otherwise it runs every block
    of its partition once, with that block's times, and joins the columns in
    grid order; at n = 32 on two CPUs the partition is two halves, run by two
    threads, so the calls are compared in sorted order."""

    ts = np.linspace(0.0, 1.0, 1001)

    @pytest.fixture(params=[8, 32])
    def n(self, request, monkeypatch):
        monkeypatch.setattr(mc, "_cpus", lambda: 2)
        return request.param

    def scan(self, n, f, *stacks):
        calls = []

        def block(ts, value, *sliced):
            assert value.shape == (ts.size, n, n)
            calls.append(ts.tolist())
            return (ts, *sliced)

        cols = mc._scan(self.ts, n, block, *stacks, values=cf.stacked_evaluator((f,)))
        return sorted(calls), cols

    def blocks(self, n, sliced):
        """The times of each block of the partition the scan uses, sorted."""
        mine, theirs = mc._scan_blocks(self.ts.size, n, not sliced)
        assert len(mine + theirs) > 1
        assert bool(theirs) is (n == 32 and not sliced)
        return sorted(self.ts[s].tolist() for s in mine + theirs)

    def test_constant_values_alone_run_once_at_t0(self, n):
        calls, (ts,) = self.scan(n, cf.constant(np.eye(n)))
        assert calls == [self.ts[:1].tolist()]
        assert ts.size == self.ts.size and (ts == self.ts[0]).all()

    def test_a_per_point_stack_runs_every_block(self, n):
        k = np.arange(self.ts.size)
        calls, (ts, got) = self.scan(n, cf.constant(np.eye(n)), k)
        assert calls == self.blocks(n, sliced=True)
        assert np.array_equal(ts, self.ts) and np.array_equal(got, k)

    def test_varying_values_run_every_block(self, n):
        calls, (ts,) = self.scan(n, cf.polynomial([np.eye(n), np.eye(n)]))
        assert calls == self.blocks(n, sliced=False)
        assert np.array_equal(ts, self.ts)


def _trajectory_results(cs, y0, lam):
    """The bytes of every trajectory scan that reads coefficients, and of the
    sandwich, on samples before the blowup's escape; several blocks at n = 8."""
    ts = np.linspace(cs.t0, 1.0, 301)
    direct = integrate_riccati_direct(cs, y0, sample_times=ts)
    assert direct.status == "completed"
    flow, radon = integrate_linear_system(cs, y0, sample_times=np.linspace(cs.t0, cs.t_end, 301))
    return (eigen_monitor(direct, lam).tobytes(), residual_series(direct, cs).tobytes(),
            repr(verify_sandwich(direct, integrate_lyapunov_comparison(cs, y0, sample_times=ts))),
            repr(liouville_check(flow, cs, radon)))


@pytest.mark.parametrize("n", [1, 2, 8])
def test_trajectory_scans_match_on_both_storages(n):
    cs, y0, gauges = _blowup(n)
    twin, twin_gauges = _poly0_twin(cs, gauges)
    if n == 8:
        assert len(mc.block_slices(301, n)) > 1
    assert _trajectory_results(cs, y0, gauges["lam"]) == \
        _trajectory_results(twin, y0, twin_gauges["lam"])
