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
    "criteria.sqrt_frame_skew_term":
        lambda tol: criteria.sqrt_frame_skew_term(BLOWUP, None, 0.5, tol),
    "criteria.sqrt_frame_condition_matrix":
        lambda tol: criteria.sqrt_frame_condition_matrix(BLOWUP, None, 0.5, tol),
    "criteria.check_sqrt_frame_criterion":
        lambda tol: criteria.check_sqrt_frame_criterion(BLOWUP, None, EYE, GRID, tol),
    "criteria.sqrt_frame_factors": lambda tol: criteria.sqrt_frame_factors(BLOWUP, 0.5, tol),
    "criteria.sqrt_frame_source_term":
        lambda tol: criteria.sqrt_frame_source_term(BLOWUP, None, 0.5, tol),
    "criteria.check_comparison_hypotheses":
        lambda tol: criteria.check_comparison_hypotheses(BLOWUP, EYE, GRID, tol),
    "criteria.run_criterion": lambda tol: criteria.run_criterion(
        "theorem3.1", BLOWUP, EYE, tol=tol),
    "matrix_core.principal_sqrt": lambda tol: matrix_core.principal_sqrt(EYE, tol),
    "matrix_core.sqrt_derivative": lambda tol: matrix_core.sqrt_derivative(EYE, EYE, tol),
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
    "sqrt_frame_skew_term": ("nu", lambda g: criteria.sqrt_frame_skew_term(BLOWUP, g, 0.5)),
    "sqrt_frame_condition_matrix":
        ("nu", lambda g: criteria.sqrt_frame_condition_matrix(BLOWUP, g, 0.5)),
    "sqrt_frame_source_term": ("nu", lambda g: criteria.sqrt_frame_source_term(BLOWUP, g, 0.5)),
    # the writer refuses what the instance parser would refuse
    "instance_to_obj": ("mu", lambda g: instance_to_obj(BLOWUP, EYE, mu=g)),
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



@pytest.mark.parametrize("algebra, ref", [
    (cf.eval_S_lambda, BLOWUP.S), (cf.eval_Q_lambda, BLOWUP.Q), (cf.eval_R_lambda, BLOWUP.R)])
def test_gauge_algebra_takes_none_as_the_zero_gauge(algebra, ref):
    assert np.array_equal(algebra(BLOWUP, None, 0.5), ref.eval(0.5))
