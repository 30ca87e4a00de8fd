"""Each certificate input has one library rule: ``matrix_core.require_tol``
for a tolerance and ``coefficients._require_gauge`` for the gauges lambda,
mu and nu. Every public function that takes ``tol`` refuses nan, +-inf and
a negative value by the one message, and a gauge of the wrong kind is
refused with its name before it reaches numpy or an instance file."""

import inspect
import math

import numpy as np
import pytest

from riccati_cert import coefficients as cf
from riccati_cert import criteria, matrix_core, verify
from riccati_cert.criteria import GridSpec
from riccati_cert.exceptions import DimensionError
from riccati_cert.instances import InstanceSpec, gen_blowup
from riccati_cert.integrate import integrate_riccati_direct
from riccati_cert.serialize import instance_to_obj

# P = I, Q = R = 0, S = -I: the solution from Y0 = I escapes at t = 3 pi / 4
BLOWUP, _ = gen_blowup(InstanceSpec(n=2, seed=1, target="blowup"))
EYE = np.eye(2)
GRID = GridSpec.for_set(BLOWUP, 11)


def _trajectory():
    return integrate_riccati_direct(BLOWUP, EYE)


# every public function of the package that takes ``tol``, called on the blow-up instance
TOL_CALLS = {
    "criteria.check_gauge_criterion":
        lambda tol: criteria.check_gauge_criterion(BLOWUP, None, EYE, GRID, tol),
    "criteria.build_skew_gauge": lambda tol: criteria.build_skew_gauge(BLOWUP, None, GRID, tol),
    "criteria.check_skew_gauge_criterion":
        lambda tol: criteria.check_skew_gauge_criterion(BLOWUP, None, EYE, GRID, tol),
    "criteria.check_sqrt_frame_criterion":
        lambda tol: criteria.check_sqrt_frame_criterion(BLOWUP, None, EYE, GRID, tol),
    "criteria.check_comparison_hypotheses":
        lambda tol: criteria.check_comparison_hypotheses(BLOWUP, EYE, GRID, tol),
    "criteria.run_criterion": lambda tol: criteria.run_criterion(
        "theorem3.1", BLOWUP, EYE, tol=tol),
    "matrix_core.require_tol": matrix_core.require_tol,
    "verify.verify_hermitian_bound":
        lambda tol: verify.verify_hermitian_bound(_trajectory(), tol=tol),
    "verify.verify_sandwich":
        lambda tol: verify.verify_sandwich(_trajectory(), _trajectory(), tol=tol),
}


def test_every_public_tol_function_is_covered():
    found = {f"{module.__name__.rsplit('.', 1)[1]}.{name}"
             for module in (criteria, matrix_core, verify, cf)
             for name, f in vars(module).items()
             if inspect.isfunction(f) and f.__module__ == module.__name__
             and not name.startswith("_") and "tol" in inspect.signature(f).parameters}
    assert found == set(TOL_CALLS)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-12])
@pytest.mark.parametrize("call", TOL_CALLS)
def test_bad_tol_is_refused_by_the_one_rule(call, tol):
    with pytest.raises(ValueError, match=r"^tol must be a finite number >= 0, got "):
        TOL_CALLS[call](tol)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-12])
@pytest.mark.parametrize("criterion", criteria.CRITERION_NAMES)
def test_bad_tol_is_refused_on_every_criterion_path(criterion, tol):
    with pytest.raises(ValueError, match=r"^tol must be a finite number >= 0, got "):
        criteria.run_criterion(criterion, BLOWUP, EYE, grid=GRID, tol=tol)


# the measures the checkers run on the grid and at t0, which the P > 0 verdict
# of cor3.2 and build_skew_gauge (``strict``) shares
MEASURE_CALLS = {
    "matrix_core._psd_measure": lambda tol: matrix_core._psd_measure(EYE[None], tol),
    "matrix_core._psd_measure-strict":
        lambda tol: matrix_core._psd_measure(EYE[None], tol, strict=True),
    "matrix_core._psd_measures": lambda tol: matrix_core._psd_measures(tol, EYE[None], EYE[None]),
    "matrix_core._defect_measure":
        lambda tol: matrix_core._defect_measure(EYE[None], EYE[None], tol),
    "criteria._scalar_shift": lambda tol: criteria._scalar_shift(EYE[None], tol),
    "criteria._initial_record": lambda tol: criteria._initial_record("initial_psd", EYE, 0.0, tol),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-12])
@pytest.mark.parametrize("call", MEASURE_CALLS)
def test_bad_tol_is_refused_by_the_measures_before_any_eigenvalue(call, tol, monkeypatch):
    def no_eigenvalues(*args):
        raise AssertionError("an eigenvalue was taken before tol was checked")

    monkeypatch.setattr(matrix_core, "_hermitian_eigvals", no_eigenvalues)
    with pytest.raises(ValueError, match=r"^tol must be a finite number >= 0, got "):
        MEASURE_CALLS[call](tol)


@pytest.mark.parametrize("criterion", ["theorem3.1", "theorem1.1"])
def test_blowup_probe_does_not_hold_at_tol_inf(criterion):
    # S + S* = -2 I: the criteria fail at the default tol, and the direct
    # solution escapes at t = 3 pi / 4 on the horizon
    assert not criteria.run_criterion(criterion, BLOWUP, EYE).holds
    assert _trajectory().status == "blow_up"
    with pytest.raises(ValueError, match="^tol must be a finite number >= 0, got inf$"):
        criteria.run_criterion(criterion, BLOWUP, EYE, tol=math.inf)


def test_blowup_trajectory_bound_fails_and_tol_inf_is_refused():
    assert not verify.verify_hermitian_bound(_trajectory()).passed
    with pytest.raises(ValueError, match="^tol must be a finite number >= 0, got inf$"):
        verify.verify_hermitian_bound(_trajectory(), tol=math.inf)


MATRIX = cf.constant(EYE)

GAUGE_CALLS = {
    "cor3.1": ("mu", lambda g: criteria.check_skew_gauge_criterion(BLOWUP, g, EYE, GRID)),
    "build_skew_gauge": ("mu", lambda g: criteria.build_skew_gauge(BLOWUP, g, GRID)),
    "cor3.2": ("nu", lambda g: criteria.check_sqrt_frame_criterion(BLOWUP, g, EYE, GRID)),
    "run_criterion-cor3.1":
        ("mu", lambda g: criteria.run_criterion("cor3.1", BLOWUP, EYE, mu=g, grid=GRID)),
    "run_criterion-cor3.2":
        ("nu", lambda g: criteria.run_criterion("cor3.2", BLOWUP, EYE, nu=g, grid=GRID)),
    # the writer refuses what the instance parser would refuse
    "instance_to_obj": ("mu", lambda g: instance_to_obj(BLOWUP, EYE, mu=g)),
    "instance_to_obj-nu": ("nu", lambda g: instance_to_obj(BLOWUP, EYE, nu=g)),
}


@pytest.mark.parametrize("call", GAUGE_CALLS)
def test_matrix_valued_scalar_gauge_is_refused_by_name(call):
    name, run = GAUGE_CALLS[call]
    with pytest.raises(DimensionError, match=f"^{name} must be scalar-valued$"):
        run(MATRIX)
    run(cf.constant(0.5, scalar=True))


@pytest.mark.parametrize("lam, message", [
    (cf.constant(0.5, scalar=True), "lambda must be matrix-valued"),
    (cf.constant(np.eye(3)), "lambda has dimension 3, expected 2"),
])
def test_lambda_of_the_wrong_kind_keeps_its_messages(lam, message):
    with pytest.raises(DimensionError, match=f"^{message}$"):
        criteria.check_gauge_criterion(BLOWUP, lam, EYE, GRID)


# each checker that takes a gauge, with its zero gauge
ZERO_GAUGES = {
    "theorem3.1": ("lam", cf.zero_matrix_function(2)),
    "cor3.1": ("mu", cf.zero_scalar_function()),
    "cor3.2": ("nu", cf.zero_scalar_function()),
}


@pytest.mark.parametrize("criterion", ZERO_GAUGES)
def test_gauge_algebra_takes_none_as_the_zero_gauge(criterion):
    name, zero = ZERO_GAUGES[criterion]
    got = criteria.run_criterion(criterion, BLOWUP, EYE, grid=GRID).to_dict()
    assert got == criteria.run_criterion(criterion, BLOWUP, EYE, grid=GRID, **{name: zero}).to_dict()


def test_skew_gauge_takes_none_as_the_zero_gauge():
    got, record = criteria.build_skew_gauge(BLOWUP, None, GRID)
    want, want_record = criteria.build_skew_gauge(BLOWUP, cf.zero_scalar_function(), GRID)
    ts = np.linspace(BLOWUP.t0, BLOWUP.t_end, 23)
    assert got.eval(ts).tobytes() == want.eval(ts).tobytes()
    assert got.derivative(ts).tobytes() == want.derivative(ts).tobytes()
    assert record == want_record
