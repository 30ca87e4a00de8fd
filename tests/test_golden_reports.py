"""Golden criterion reports.

``data/golden_reports.json`` holds the verdicts and witnesses of all four
criteria on seeded instances, recorded with the per-grid-point checkers
that preceded the stacked grid path. Verdicts, condition names, kinds,
notes and witness times must match exactly; witness values to 1e-12
relative (Frobenius norms of a stack round differently from those of a
single matrix).

Regenerate with ``PYTHONPATH=src python tests/test_golden_reports.py``
only when a verdict change is intended and logged.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from riccati_cert import coefficients as cf
from riccati_cert.coefficients import CoefficientSet
from riccati_cert.criteria import CRITERION_NAMES, run_criterion
from riccati_cert.instances import (
    InstanceSpec,
    gen_blowup,
    gen_comparison,
    gen_satisfying,
)

GOLDEN = Path(__file__).parent / "data" / "golden_reports.json"


def _family(family, n):
    """(cs, y0, lam, mu) of one seeded generator instance."""
    seed = 100 + n
    if family == "satisfying":
        cs, lam, mu, y0 = gen_satisfying(InstanceSpec(n=n, seed=seed))
        return cs, y0, lam, mu
    if family == "comparison":
        cs, y0 = gen_comparison(InstanceSpec(n=n, seed=seed, target="comparison"))
        return cs, y0, None, None
    cs, y0 = gen_blowup(InstanceSpec(n=n, seed=seed, target="blowup", scale=1.5))
    return cs, y0, None, None


def _spline_twin():
    """Order-3 sampled twin of the n=2 satisfying instance on 51 nodes."""
    cs, y0, lam, mu = _family("satisfying", 2)
    nodes = np.linspace(cs.t0, cs.t_end, 51)

    def sample(f):
        return cf.sampled(nodes, [f.eval(t) for t in nodes], order=3)

    twin = CoefficientSet(n=cs.n, t0=cs.t0, t_end=cs.t_end, P=sample(cs.P),
                          Q=sample(cs.Q), R=sample(cs.R), S=sample(cs.S))
    return twin, y0, lam, mu


def _indefinite_p():
    """P(t) = diag(1, t - 0.3) on [0, 1]: positive definite only for t > 0.3."""
    rng = np.random.default_rng(5)
    q = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    r = np.array([[0.0, 0.4], [-0.4, 0.2j]])
    cs = CoefficientSet(
        n=2, t0=0.0, t_end=1.0,
        P=cf.polynomial([np.diag([1.0, -0.3]), np.diag([0.0, 1.0])]),
        Q=cf.constant(q), R=cf.constant(q.conj().T + r),
        S=cf.polynomial([np.eye(2), 0.5 * np.eye(2)]))
    return cs, np.eye(2), None, cf.constant(0.25, scalar=True)


CASES = {
    **{f"{family}.n{n}": (lambda family=family, n=n: _family(family, n))
       for family in ("satisfying", "comparison", "blowup") for n in (1, 2, 8)},
    "satisfying.n2.spline": _spline_twin,
    "indefinite_p.n2": _indefinite_p,
}


def _summary(rep) -> dict:
    return {
        "holds": rep.holds,
        "notes": rep.notes,
        "conditions": [rec.to_dict() for rec in rep.conditions],
    }


def _reports(case):
    cs, y0, lam, mu = CASES[case]()
    return {name: _summary(run_criterion(name, cs, y0, lam=lam, mu=mu, nu=mu))
            for name in CRITERION_NAMES}


def _golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_reports_match_golden(case):
    golden = _golden()[case]
    for name, got in _reports(case).items():
        want = golden[name]
        assert got["holds"] == want["holds"], name
        assert got["notes"] == want["notes"], name
        assert [c["name"] for c in got["conditions"]] == \
            [c["name"] for c in want["conditions"]], name
        for g, w in zip(got["conditions"], want["conditions"]):
            where = f"{case} {name} {w['name']}"
            for key in ("passed", "kind", "worst_time", "note"):
                assert g[key] == w[key], f"{where}: {key}"
            gv, wv = g["worst_value"], w["worst_value"]
            if math.isinf(wv):
                assert gv == wv, where
            else:
                assert abs(gv - wv) <= 1e-12 * abs(wv), f"{where}: {gv!r} vs {wv!r}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({case: _reports(case) for case in sorted(CASES)},
                                 indent=1, sort_keys=True) + "\n")
