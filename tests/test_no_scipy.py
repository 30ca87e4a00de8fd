"""riccati_cert never loads scipy; sampled data equal scipy's bit for bit.

Importing every module of the package and running the four subcommands
on constant, polynomial and sampled instances leave scipy unloaded,
checked in a fresh interpreter. A sampled function's cells, values and
derivatives equal those of the scipy interpolator built from the same
data (scipy is the reference implementation here), bit for bit, and it
refuses what scipy refuses, with the same exception type.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicHermiteSpline, CubicSpline, PPoly

from riccati_cert import coefficients as cf

SRC = str(Path(__file__).resolve().parents[1] / "src")


def fresh_run(code: str, *args) -> dict:
    """Run ``code`` in a fresh interpreter that imports riccati_cert from this
    checkout; it must print one JSON object, which is returned with the
    scipy modules loaded at exit under "scipy"."""
    tail = ("\nimport json as _json, sys as _sys\n"
            "_out = dict(OUT, scipy=sorted(m for m in _sys.modules if m.split('.')[0] == 'scipy'))\n"
            "print(_json.dumps(_out))\n")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", code + tail, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout.splitlines()[-1])


CLI_SCRIPT = """
import contextlib, io, sys
from riccati_cert.cli import main
from riccati_cert.criteria import CRITERION_NAMES

workdir, targets = sys.argv[1], sys.argv[2:]
codes = []

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append([" ".join(argv), main(list(argv))])

for target in targets:
    inst = f"{workdir}/{target}.json"
    if target != "sampled":
        run("gen", "--target", target, "--n", "2", "--seed", "5", "--out", inst)
    for criterion in CRITERION_NAMES:
        run("check", inst, "--criterion", criterion)
    for method in ("direct", "radon", "both", "lyapunov"):
        csv = f"{workdir}/{target}.{method}.csv"
        run("integrate", inst, "--method", method, "--out", csv)
        run("verify", inst, csv)
OUT = {"codes": codes}
"""


class TestColdStart:
    def test_import_loads_no_scipy(self):
        # the package root imports no submodule, so every one is imported here
        out = fresh_run("import importlib, pkgutil, riccati_cert\n"
                        "names = [m.name for m in pkgutil.iter_modules(riccati_cert.__path__)]\n"
                        "for name in names:\n"
                        "    importlib.import_module(f'riccati_cert.{name}')\n"
                        "OUT = {'modules': names}")
        assert {"coefficients", "criteria", "integrate", "verify", "cli"} <= set(out["modules"])
        assert out["scipy"] == []

    def test_cli_on_constant_and_polynomial_data_loads_no_scipy(self, tmp_path):
        # blowup is constant data; satisfying and comparison are polynomial
        out = fresh_run(CLI_SCRIPT, tmp_path, "satisfying", "blowup", "comparison")
        assert len(out["codes"]) == 3 * (1 + 4 + 8)
        assert {code for _, code in out["codes"]} <= {0, 1}, out["codes"]
        assert out["scipy"] == []

    def test_cli_on_sampled_data_loads_no_scipy(self, tmp_path):
        # a natural cubic P and a linear S, through all four subcommands
        n, t_end = 1, 1.0
        times = list(np.linspace(0.0, t_end, 5))
        const = {"kind": "constant", "value": [[[0.0, 0.0]]]}
        obj = {"n": n, "t0": 0.0, "t_end": t_end,
               "P": {"kind": "sampled", "order": 3, "times": times,
                     "values": [[[[1.0 + t, 0.0]]] for t in times]},
               "Q": const, "R": const,
               "S": {"kind": "sampled", "order": 1, "times": times,
                     "values": [[[[t * t, 0.0]]] for t in times]},
               "Y0": [[[1.0, 0.0]]]}
        (tmp_path / "sampled.json").write_text(json.dumps(obj))
        out = fresh_run(CLI_SCRIPT, tmp_path, "sampled")
        assert len(out["codes"]) == 4 + 8
        assert {code for _, code in out["codes"]} <= {0, 1}, out["codes"]
        assert out["scipy"] == []

    def test_linear_function_loads_no_scipy(self):
        out = fresh_run("""
from riccati_cert import coefficients as cf
f = cf.sampled([0.0, 1.0, 3.0], [1.0, 2.0, 0.0], order=1, scalar=True)
value = f.eval(2.0)
OUT = {"value": [value.real, value.imag], "slope": f.derivative(2.0).real}
""")
        assert out["value"] == [1.0, 0.0] and out["slope"] == -1.0
        assert out["scipy"] == []

    def test_cubic_function_loads_no_scipy(self):
        # a natural spline, a Hermite one, and the Hermite gauge of cor3.1
        out = fresh_run("""
import numpy as np
from riccati_cert import coefficients as cf, criteria
natural = cf.sampled([0.0, 1.0, 3.0], [1.0, 2.0, 0.0], order=3, scalar=True)
hermite = cf.sampled([0.0, 1.0, 3.0], [1.0, 2.0, 0.0], order=3, scalar=True,
                     node_derivatives=[0.0, 1.0, 0.0])
cs = cf.CoefficientSet(n=2, t0=0.0, t_end=1.0, P=cf.constant(np.eye(2)),
                       Q=cf.polynomial([np.zeros((2, 2)), [[0.0, 1.0], [0.0, 0.0]]]),
                       R=cf.constant(np.zeros((2, 2))), S=cf.constant(np.eye(2)))
gauge, _ = criteria.build_skew_gauge(cs)
ts = np.linspace(0.0, 1.0, 7)
values = [f(ts) for f in (natural.eval, natural.derivative, hermite.eval, hermite.derivative,
                          gauge.eval, gauge.derivative)]
OUT = {"finite": all(bool(np.isfinite(v).all()) for v in values)}
""")
        assert out["finite"]
        assert out["scipy"] == []


def _eager(times, values, order, node_derivatives):
    """The scipy piecewise polynomial built at once from the same data."""
    times = np.asarray(times, dtype=np.float64)
    vals = np.asarray(values, dtype=np.complex128)
    if node_derivatives is not None:
        return CubicHermiteSpline(times, vals, np.asarray(node_derivatives, np.complex128), axis=0)
    if order == 3:
        return CubicSpline(times, vals, axis=0, bc_type="natural")
    slopes = np.diff(vals, axis=0) / np.diff(times).reshape((-1,) + (1,) * (vals.ndim - 1))
    return PPoly(np.stack([slopes, vals[:-1]]), times)


KINDS = ("linear", "cubic", "hermite")


def _build(kind, times, values, scalar, node_derivatives=None):
    """(our function, the eager scipy object) for one interpolation kind."""
    order = 1 if kind == "linear" else 3
    nd = node_derivatives if kind == "hermite" else None
    return (lambda: cf.sampled(times, values, order=order, scalar=scalar, node_derivatives=nd),
            lambda: _eager(times, values, order, nd))


def _data(kind, scalar):
    rng = np.random.default_rng(len(kind) + 10 * scalar)
    times = np.cumsum(rng.uniform(0.1, 1.0, 9)) - 0.3
    shape = (9,) if scalar else (9, 3, 3)
    draw = lambda: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)  # noqa: E731
    return times, draw(), draw()


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.complex128).tobytes()


class TestEagerParity:
    @pytest.mark.parametrize("scalar", [True, False], ids=["scalar", "matrix"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_eval_and_derivative_equal_bits(self, kind, scalar):
        times, values, nd = _data(kind, scalar)
        ours, eager = (build() for build in _build(kind, times, values, scalar, nd))
        d_eager = eager.derivative()
        grid = np.concatenate([times, np.linspace(times[0], times[-1], 37)])
        assert _bits(ours.eval(grid)) == _bits(eager(grid))
        assert _bits(ours.derivative(grid)) == _bits(d_eager(grid))
        for t in grid[::4]:
            assert _bits(ours.eval(float(t))) == _bits(eager(float(t)))
            assert _bits(ours.derivative(float(t))) == _bits(d_eager(float(t)))

    @pytest.mark.parametrize("times", [[0.0, 0.85e308, 1.7e308], [0.0, 5e-324, 1e-323]],
                             ids=["span_1.7e308", "spacing_5e-324"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_extreme_grids_fail_or_agree_like_scipy(self, kind, times):
        values, nd = [1.0, 2.0, 4.0], [0.0, 1.0, 0.0]
        with np.errstate(all="ignore"):
            outcomes = []
            for build in _build(kind, times, values, True, nd):
                try:
                    outcomes.append(build())
                except Exception as exc:  # noqa: BLE001 - the type is compared
                    outcomes.append(type(exc))
            ours, eager = outcomes
            if isinstance(eager, type):
                assert ours is eager
            else:
                t = 0.5 * (times[0] + times[1])
                assert _bits(ours.eval(t)) == _bits(eager(t))
                assert _bits(ours.derivative(t)) == _bits(eager.derivative()(t))

    @pytest.mark.parametrize("kind", ("cubic", "hermite"))
    def test_non_finite_time_is_a_value_error_like_scipy(self, kind):
        ours, eager = _build(kind, [0.0, 1.0, np.inf], [1.0, 2.0, 4.0], True, [0.0, 1.0, 0.0])
        for build in (ours, eager):
            with pytest.raises(ValueError):
                build()


#: real and imaginary parts: ordinary values, exact zeros of both signs and ones
PARTS = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, -0.0, 1.0]))


@st.composite
def sampled_cases(draw):
    """(kind, times, values, node derivatives, scalar): 2 to 9 nodes whose
    neighbouring spacings differ by factors up to e^12, so the natural
    spline's system pivots; scalar or m x m values, complex or real only."""
    kind = draw(st.sampled_from(KINDS))
    k = draw(st.integers(2, 9))
    steps = draw(st.lists(st.floats(-6.0, 6.0), min_size=k - 1, max_size=k - 1))
    times = np.cumsum([0.0] + [float(np.exp(x)) for x in steps]) - 1.0
    scalar = draw(st.booleans())
    shape = (k,) if scalar else (k,) + (draw(st.integers(1, 3)),) * 2
    real_only = draw(st.booleans())
    size = int(np.prod(shape))

    def stack():
        a = np.empty(shape, dtype=np.complex128)
        a.real = np.reshape(draw(st.lists(PARTS, min_size=size, max_size=size)), shape)
        a.imag = 0.0 if real_only else np.reshape(
            draw(st.lists(PARTS, min_size=size, max_size=size)), shape)
        return a

    return kind, times, stack(), stack(), scalar


def _case(kind, times, values, scalar=True, nd=None):
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.complex128)
    nd = np.flip(values, axis=0) if nd is None else np.asarray(nd, dtype=np.complex128)
    return kind, times, values, nd.copy(), scalar


class TestParityProperty:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(sampled_cases())
    # 2 and 3 nodes; spacings 1 then 3 pivot at the first row; real values
    # with -0.0 parts; matrix values
    @example(_case("cubic", [0.0, 1.0], [2.0, -0.0]))
    @example(_case("cubic", [0.0, 1.0, 4.0], [-0.0, 1.0, -0.0]))
    @example(_case("cubic", [0.0, 1.0, 4.0, 4.5, 40.0],
                   [complex(-0.0, 1.0), 0.0, -1.0, complex(2.0, -0.0), 0.5]))
    @example(_case("hermite", [0.0, 1.0, 4.0], [-0.0, 1.0, -0.0]))
    @example(_case("linear", [0.0, 1.0, 4.0], [-0.0, 1.0, -0.0]))
    @example(_case("cubic", [0.0, 0.5, 3.0],
                   [np.eye(2), -0.0 * np.eye(2), [[1.0, -0.0], [0.0, 2.0]]], scalar=False))
    # finite cells whose s^1 term overflows at the midpoint: scipy's
    # complex 1.0 turns (inf, 0) into (inf, nan)
    @example(_case("hermite", [0.0, 1e9], [0.0, 0.0], nd=[1e300, -2e300]))
    def test_cells_values_and_derivatives_equal_bits(self, case):
        kind, times, values, nd, scalar = case
        ours, eager = (build() for build in _build(kind, times, values, scalar, nd))
        assert _bits(ours.cells) == _bits(eager.c)
        grid = np.concatenate([times, 0.5 * (times[1:] + times[:-1])])
        d_eager = eager.derivative()
        assert _bits(ours.eval(grid)) == _bits(eager(grid))
        assert _bits(ours.derivative(grid)) == _bits(d_eager(grid))
        for t in grid[::3]:
            assert _bits(ours.eval(float(t))) == _bits(eager(float(t)))


class TestGtsvPort:
    """``_gtsv`` against LAPACK ``zgtsv`` itself on real tridiagonal systems
    with complex right-hand sides made of +-0.0 and +-1.0 parts, where the
    sign of a zero depends on the order and form of every complex operation."""

    @pytest.mark.parametrize("seed", range(4))
    def test_equal_bits(self, seed):
        from scipy.linalg.lapack import zgtsv

        rng = np.random.default_rng(seed)
        for _ in range(150):
            n, k = int(rng.integers(2, 9)), int(rng.integers(1, 4))
            # the natural spline's rows on spacings up to e^4 apart: some pivot
            dx = np.exp(rng.uniform(-2.0, 2.0, n - 1))
            lower = np.concatenate([dx[1:], dx[-1:]])
            diag = np.concatenate([2 * dx[:1], 2 * (dx[:-1] + dx[1:]), 2 * dx[-1:]])
            upper = np.concatenate([dx[:1], dx[:-1]])
            b = np.empty((n, k), dtype=np.complex128)
            b.real = rng.choice([0.0, -0.0, 1.0, -1.0], (n, k))
            b.imag = rng.choice([0.0, -0.0, 1.0], (n, k))
            want = zgtsv(*(a.astype(np.complex128) for a in (lower, diag, upper)), b.copy())[3]
            assert _bits(cf._gtsv(lower, diag, upper, b)) == _bits(np.ascontiguousarray(want))


class TestFiniteTimes:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("times, k", [([0.0, 1.0, np.inf], 2), ([-np.inf, 0.0, 1.0], 0),
                                          ([0.0, np.nan, 1.0], 1)])
    def test_refused_at_construction_naming_the_time(self, kind, times, k):
        build, _ = _build(kind, times, [1.0, 2.0, 4.0], True, [0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match=rf"sampled time {k} must be finite, got"):
            build()


class TestLoaderRefusals:
    @pytest.mark.parametrize("times", [[0.0, 0.85e308, 1.7e308], [0.0, 5e-324, 1e-323]],
                             ids=["span_1.7e308", "spacing_5e-324"])
    def test_cubic_refusal_exits_two_naming_the_field(self, tmp_path, capsys, times):
        from riccati_cert.cli import main

        const = {"kind": "constant", "value": [[[0.0, 0.0]]]}
        obj = {"n": 1, "t0": times[0], "t_end": times[-1], "Q": const, "R": const, "S": const,
               "P": {"kind": "sampled", "order": 3, "times": times,
                     "values": [[[[1.0, 0.0]]], [[[2.0, 0.0]]], [[[4.0, 0.0]]]]},
               "Y0": [[[1.0, 0.0]]]}
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(obj))
        with np.errstate(all="ignore"):
            code = main(["check", str(path)])
        assert code == 2
        assert "field 'P'" in capsys.readouterr().err


class TestConcurrentReads:
    def test_threads_reading_one_function_read_equal_bits(self):
        # more threads than cores and a short switch interval: evaluation is
        # pure, so every thread reads the bits of scipy's interpolant
        import threading

        times, values, _ = _data("linear", False)
        grid = np.linspace(times[0], times[-1], 29)
        want = _bits(_eager(times, values, 1, None)(grid))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                f = cf.sampled(times, values, order=1)
                start, got = threading.Barrier(8), []

                def read(f=f, start=start, got=got):
                    start.wait(timeout=30)
                    got.append((_bits(f.eval(grid)), _bits(f.derivative(grid[3]))))

                threads = [threading.Thread(target=read) for _ in range(8)]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=30)
                    assert not th.is_alive()
                assert len(got) == 8
                assert {values_bits for values_bits, _ in got} == {want}
                assert len({slope_bits for _, slope_bits in got}) == 1
        finally:
            sys.setswitchinterval(interval)
