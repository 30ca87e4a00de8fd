"""Golden trajectories.

``data/golden_trajectories.json`` holds, for every case, the SHA-256 of
the sampled times and values of the direct, linear-flow (radon) and
Lyapunov integrators (for radon also of the singular times and of the
flow's times, Phi and Psi), with the status, escape time, blow-up trigger
and number of restarts. Every digest covers dtype, shape and bytes, so a
case passes only when its output is bit for bit the recorded one.

Cases: the three generator families at n in {1, 2, 8} with rtol 1e-9
and 1e-12, every catalog entry on the default, a 7-sample and a 1-sample
grid, ``tan_blowup`` with a sample exactly at pi/2, where Phi is
numerically singular, a few cases for the rarer branches of the
driver: flow resets, a run through a pole, samples closer than the
rounding slack and a step collapse, and the order-1 and order-3
sampled twins (51 nodes) of the satisfying and comparison families at
n in {1, 2, 8}, so the integrators' path through sampled data is pinned
as well.

The digests pin the rounding of one numpy build (recorded with numpy
2.4.6 and its bundled OpenBLAS 0.3.31, DYNAMIC_ARCH, on x86-64); a BLAS
kernel that rounds differently changes them without any change to this
package, and they are then recorded afresh at the parent commit.

Regenerate with ``PYTHONPATH=src python tests/test_golden_trajectories.py``
only when a change of the integrators' output is intended and logged.
"""

import functools
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from riccati_cert import coefficients as cf
from riccati_cert.coefficients import CoefficientSet
from riccati_cert.instances import (
    InstanceSpec,
    canonical_catalog,
    gen_blowup,
    gen_comparison,
    gen_satisfying,
)
from riccati_cert.integrate import (
    IntegratorOptions,
    default_sample_times,
    integrate_linear_system,
    integrate_lyapunov_comparison,
    integrate_riccati_direct,
)

GOLDEN = Path(__file__).parent / "data" / "golden_trajectories.json"
METHODS = ("direct", "radon", "lyapunov")


def _family(family, n):
    """(cs, y0) of one seeded generator instance."""
    seed = 100 + n
    if family == "satisfying":
        cs, _, _, y0 = gen_satisfying(InstanceSpec(n=n, seed=seed))
        return cs, y0
    if family == "comparison":
        return gen_comparison(InstanceSpec(n=n, seed=seed, target="comparison"))
    return gen_blowup(InstanceSpec(n=n, seed=seed, target="blowup", scale=1.5))


def _twin(family, n, order):
    """(cs, y0) of a generator instance with P, Q, R, S sampled on 51 nodes."""
    cs, y0 = _family(family, n)
    nodes = np.linspace(cs.t0, cs.t_end, 51)

    def sample(f):
        return cf.sampled(nodes, [f.eval(t) for t in nodes], order=order)

    twin = CoefficientSet(n=n, t0=cs.t0, t_end=cs.t_end, P=sample(cs.P), Q=sample(cs.Q),
                          R=sample(cs.R), S=sample(cs.S))
    return twin, y0


def _catalog(name, num):
    """(cs, y0, sample_times) of a catalog entry; ``num=None`` is the default grid."""
    e = canonical_catalog()[name]
    return e.cs, e.y0, None if num is None else default_sample_times(e.cs, num)


def _pole():
    """tan_blowup (y = -tan t) sampled at 0, 1, pi/2 and 2."""
    e = canonical_catalog()["tan_blowup"]
    return e.cs, e.y0, np.array([0.0, 1.0, math.pi / 2, 2.0])


def _scalar(t_end, y0, p=0.0, r=0.0, s=0.0):
    """(cs, y0) of the scalar equation y' = s - p y^2 - r y with constant data."""
    cs = CoefficientSet(n=1, t0=0.0, t_end=t_end, P=cf.constant([[p]]),
                        Q=cf.constant([[0.0]]), R=cf.constant([[r]]), S=cf.constant([[s]]))
    return cs, np.array([[y0]])


def _special():
    """Cases that reach the rarer branches of the driver."""
    drift = CoefficientSet(n=2, t0=0.0, t_end=4.0, P=cf.constant(np.zeros((2, 2))),
                           Q=cf.constant(np.zeros((2, 2))), R=cf.constant(np.diag([4.0, -4.0])),
                           S=cf.constant(np.zeros((2, 2))))
    tanh = canonical_catalog()["tanh"]
    return {
        # Phi = e^{20t}: repeated (Phi, Psi) <- (I, Y) resets
        "growth": (lambda: (*_scalar(6.0, 1.0, r=20.0), np.linspace(0.0, 6.0, 301)),
                   ("radon",)),
        # kappa(Phi) = e^{8t}: resets driven by the condition estimate
        "drift": (lambda: (drift, np.ones((2, 2)), np.linspace(0.0, 4.0, 201)), ("radon",)),
        # y = -tan t on [0, pi]: singular samples, then resets past the pole
        "through_pole": (lambda: (*_scalar(math.pi, 0.0, p=1.0, s=-1.0),
                                  np.linspace(0.0, math.pi, 101)), ("radon",)),
        # samples closer than the rounding slack are recorded without a step
        "close_samples": (lambda: (tanh.cs, tanh.y0,
                                   np.array([0.0, 1e-14, 1.0, 1.0 + 1e-14, 3.0])), METHODS),
        # escape after ~1e-14: the step collapses before the norm cap
        "collapse": (lambda: (*_scalar(1.0, -9e7, p=1e6), None), ("direct",)),
    }


def _cases():
    cases = {}
    for family in ("satisfying", "comparison", "blowup"):
        for n in (1, 2, 8):
            for rtol in (1e-9, 1e-12):
                def make(family=family, n=n):
                    return (*_family(family, n), None)
                for method in METHODS:
                    cases[f"{family}.n{n}.rtol{rtol:g}.{method}"] = (make, method, rtol)
    for family in ("satisfying", "comparison"):
        for n in (1, 2, 8):
            for order in (1, 3):
                def make(family=family, n=n, order=order):
                    return (*_twin(family, n, order), None)
                for method in METHODS:
                    cases[f"sampled{order}.{family}.n{n}.{method}"] = (make, method, 1e-9)
    for name in canonical_catalog():
        for num in (None, 7, 1):
            grid = "default" if num is None else f"s{num}"
            for method in METHODS:
                cases[f"catalog.{name}.{grid}.{method}"] = (
                    lambda name=name, num=num: _catalog(name, num), method, 1e-9)
    cases["catalog.tan_blowup.pole.radon"] = (_pole, "radon", 1e-9)
    for name, (make, methods) in _special().items():
        for method in methods:
            cases[f"special.{name}.{method}"] = (make, method, 1e-9)
    return cases


CASES = _cases()


def _digest(a) -> str:
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def _record(case) -> dict:
    make, method, rtol = CASES[case]
    cs, y0, ts = make()
    opts = IntegratorOptions(rtol=rtol)
    flow = None
    if method == "direct":
        traj = integrate_riccati_direct(cs, y0, opts, ts)
    elif method == "radon":
        flow, traj = integrate_linear_system(cs, y0, opts, ts)
    else:
        traj = integrate_lyapunov_comparison(cs, y0, opts, ts)
    rec = {
        "times": _digest(traj.times),
        "values": _digest(traj.values),
        "status": traj.status,
        "t_escape": traj.t_escape,
        "blowup_trigger": traj.blowup_trigger,
        "restarts": None,
    }
    if flow is not None:
        rec.update(singular_times=_digest(traj.singular_times),
                   flow_times=_digest(flow.times), flow_phi=_digest(flow.phi),
                   flow_psi=_digest(flow.psi), restarts=len(flow.restarts))
    return rec


@functools.cache
def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_cases_cover_every_golden_record():
    assert sorted(CASES) == sorted(_golden())


def test_rare_branches_are_reached():
    golden = _golden()
    assert golden["catalog.tan_blowup.pole.radon"]["status"] == "phi_singular"
    assert golden["special.through_pole.radon"]["status"] == "phi_singular"
    assert golden["special.growth.radon"]["restarts"] > 1
    assert golden["special.collapse.direct"]["blowup_trigger"] == "step_collapse"


@pytest.mark.parametrize("case", sorted(CASES))
def test_trajectory_matches_golden(case):
    assert _record(case) == _golden()[case]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({case: _record(case) for case in sorted(CASES)},
                                 indent=1, sort_keys=True) + "\n")
