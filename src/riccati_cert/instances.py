"""Constructive instance generation and the canonical closed-form catalog.

``gen_satisfying`` inverts the gauge criterion: it samples free data and
derives R and S so that every condition holds exactly (not by rejection,
which would bias the shifted source toward small values). All arithmetic
stays inside the polynomial representation, so coefficient derivatives
are exact and the downstream checks are quantitatively trustworthy.
Each random draw is a polynomial of fixed degree: P's factor 1, Q 2,
lambda 2, mu 1 and S's factor 1.

Generation is fully determined by the seed: identical specs produce
bit-identical instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import coefficients as cf
from .coefficients import CoefficientSet, _poly_add, _poly_diff, _poly_mul
from .matrix_core import _require_dim, _require_int, adjoint

#: Each target of ``generate`` and the criterion its instances are built for.
TARGETS = {"satisfying": "theorem3.1", "blowup": "theorem3.1", "comparison": "theorem1.1"}


@dataclass(frozen=True)
class InstanceSpec:
    """Reproducible recipe for one generated instance.

    ``scale`` caps the Frobenius norm of every random draw (and for the
    blow-up family it is the escape-rate constant c in S = -c I).
    """

    n: int
    seed: int
    horizon: float = 5.0
    t0: float = 0.0
    scale: float = 1.0
    target: str = "satisfying"

    def __post_init__(self):
        # each message starts with the field it names; the CLI turns it into the flag
        if self.target not in TARGETS:
            raise ValueError(f"target must be one of {tuple(TARGETS)}, got {self.target!r}")
        _require_dim(self.n)
        _require_int(self.seed, "seed")
        if not self.seed >= 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be finite and positive, got {self.horizon!r}")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be finite and positive, got {self.scale!r}")
        cf._require_interval(self.t0, self.t_end, "t0 + horizon minus t0")

    @property
    def t_end(self) -> float:
        return self.t0 + self.horizon


# ---------------------------------------------------------------------------
# Seeded random draws
# ---------------------------------------------------------------------------

def _random_matrix(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    nrm = float(np.linalg.norm(g))
    return (scale / nrm) * g if nrm > 0 else g

def _random_psd(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    g = _random_matrix(rng, n, 1.0)
    h = g.conj().T @ g
    nrm = float(np.linalg.norm(h))
    return (scale / nrm) * h if nrm > 0 else h

def _random_matrix_poly(rng: np.random.Generator, n: int, degree: int,
                        scale: float, span: float) -> np.ndarray:
    # normalized so sup_{[t0, t_end]} ||poly||_F <= scale
    base = max(span, 1.0)
    return np.stack([_random_matrix(rng, n, scale / ((degree + 1) * base ** k))
                     for k in range(degree + 1)])

def _random_scalar_poly(rng: np.random.Generator, degree: int,
                        scale: float, span: float) -> np.ndarray:
    # Real coefficients: the certified bound is only sound for a real
    # scalar shift (a purely imaginary shift rotates solutions, e.g.
    # y' = -i y, and defeats any lower bound on Y + Y*).
    base = max(span, 1.0)
    out = []
    for k in range(degree + 1):
        x = float(rng.standard_normal())
        bound = scale / ((degree + 1) * base ** k)
        out.append(complex(bound * max(-1.0, min(1.0, x))))
    return np.array(out)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def gen_satisfying(spec: InstanceSpec):
    """Instance built to satisfy the gauge criterion exactly.

    P := A*A (always PSD); R := Q* + P(L* - L) + mu I exactly matches the
    scalar-shift condition; S := W/2 + L' + L P L + Q L + L R makes the
    shifted source S_L + S_L* equal the sampled PSD matrix W; and
    Y0 := L(t0) + H0 with PSD H0 meets the initial clause.

    Returns (coefficient set, gauge L, scalar mu, Y0).
    """
    rng = np.random.default_rng(spec.seed)
    n, t0, span = spec.n, spec.t0, spec.horizon

    a = _random_matrix_poly(rng, n, 1, math.sqrt(spec.scale), span)
    q = _random_matrix_poly(rng, n, 2, spec.scale, span)
    lam = _random_matrix_poly(rng, n, 2, 0.5 * spec.scale, span)
    mu = _random_scalar_poly(rng, 1, spec.scale, span)
    w = _random_psd(rng, n, spec.scale)
    h0 = _random_psd(rng, n, spec.scale)

    p = _poly_mul(adjoint(a), a)
    lam_gap = _poly_add(adjoint(lam), -lam)
    r = _poly_add(_poly_add(adjoint(q), _poly_mul(p, lam_gap)),
                  mu[:, None, None] * np.eye(n, dtype=np.complex128))
    s = _poly_add(
        _poly_add((w / 2.0)[None], _poly_diff(lam)),
        _poly_add(_poly_mul(_poly_mul(lam, p), lam),
                  _poly_add(_poly_mul(q, lam), _poly_mul(lam, r))),
    )

    cs = CoefficientSet(
        n=n, t0=t0, t_end=spec.t_end,
        P=cf.polynomial(p, t_ref=t0),
        Q=cf.polynomial(q, t_ref=t0),
        R=cf.polynomial(r, t_ref=t0),
        S=cf.polynomial(s, t_ref=t0),
    )
    lam_fn = cf.polynomial(lam, t_ref=t0)
    mu_fn = cf.polynomial(mu, t_ref=t0, scalar=True)
    y0 = lam_fn.eval(t0) + h0
    return cs, lam_fn, mu_fn, y0


def gen_blowup(spec: InstanceSpec):
    """The finite-escape family P = I, Q = R = 0, S = -c I, Y0 = 0.

    Its solution is the diagonal matrix -sqrt(c) tan(sqrt(c) (t - t0)) I,
    escaping at t0 + pi / (2 sqrt(c)) with c = ``spec.scale``. The
    shifted-source condition fails by construction (S + S* = -2c I).
    Returns (coefficient set, Y0).
    """
    n, c = spec.n, spec.scale
    eye = np.eye(n)
    cs = CoefficientSet(
        n=n, t0=spec.t0, t_end=spec.t_end,
        P=cf.constant(eye),
        Q=cf.constant(np.zeros((n, n))),
        R=cf.constant(np.zeros((n, n))),
        S=cf.constant(-c * eye),
    )
    return cs, np.zeros((n, n), dtype=np.complex128)


def blowup_escape_time(spec: InstanceSpec) -> float:
    """Closed-form escape time of the gen_blowup family."""
    return spec.t0 + math.pi / (2.0 * math.sqrt(spec.scale))


def gen_comparison(spec: InstanceSpec):
    """Instance meeting the linear-comparison hypotheses exactly:
    P := A*A >= 0, S := B*B >= 0, R := Q*, Y0 := C*C >= 0.

    Returns (coefficient set, Y0).
    """
    rng = np.random.default_rng(spec.seed)
    n, t0, span = spec.n, spec.t0, spec.horizon

    a = _random_matrix_poly(rng, n, 1, math.sqrt(spec.scale), span)
    b = _random_matrix_poly(rng, n, 1, math.sqrt(spec.scale), span)
    q = _random_matrix_poly(rng, n, 2, spec.scale, span)
    y0 = _random_psd(rng, n, spec.scale)

    cs = CoefficientSet(
        n=n, t0=t0, t_end=spec.t_end,
        P=cf.polynomial(_poly_mul(adjoint(a), a), t_ref=t0),
        Q=cf.polynomial(q, t_ref=t0),
        R=cf.polynomial(adjoint(q), t_ref=t0),
        S=cf.polynomial(_poly_mul(adjoint(b), b), t_ref=t0),
    )
    return cs, y0


def generate(spec: InstanceSpec):
    """(coefficient set, Y0, gauges) of ``spec.target``, the gauges keyed as
    ``serialize.instance_to_obj`` and ``run_criterion`` take them."""
    if spec.target == "satisfying":
        cs, lam, mu, y0 = gen_satisfying(spec)
        return cs, y0, {"lam": lam, "mu": mu}
    cs, y0 = (gen_blowup if spec.target == "blowup" else gen_comparison)(spec)
    return cs, y0, {}


# ---------------------------------------------------------------------------
# Canonical closed-form cases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    """A named instance with a closed-form solution descriptor."""

    name: str
    cs: CoefficientSet
    y0: np.ndarray
    formula: str
    exact: Callable[[float], np.ndarray] | None = None
    escape_time: float | None = None


def _scalar_set(t_end: float, p: float, q: float, r: float, s: float) -> CoefficientSet:
    return CoefficientSet(
        n=1, t0=0.0, t_end=t_end,
        P=cf.constant([[p]]), Q=cf.constant([[q]]),
        R=cf.constant([[r]]), S=cf.constant([[s]]),
    )


def canonical_catalog() -> dict[str, CatalogEntry]:
    """Desk-scale instances with known solutions, addressable by name."""
    entries = []

    entries.append(CatalogEntry(
        name="tanh",
        cs=_scalar_set(3.0, 1.0, 0.0, 0.0, 1.0),
        y0=np.zeros((1, 1), dtype=np.complex128),
        formula="y(t) = tanh(t); linear flow phi = cosh(t), psi = sinh(t)",
        exact=lambda t: np.array([[math.tanh(t)]], dtype=np.complex128),
    ))

    entries.append(CatalogEntry(
        name="tan_blowup",
        cs=_scalar_set(2.0, 1.0, 0.0, 0.0, -1.0),
        y0=np.zeros((1, 1), dtype=np.complex128),
        formula="y(t) = -tan(t), escapes at pi/2; flow phi = cos(t), psi = -sin(t)",
        exact=lambda t: np.array([[-math.tan(t)]], dtype=np.complex128),
        escape_time=math.pi / 2.0,
    ))

    eye2 = np.eye(2)
    zero2 = np.zeros((2, 2))
    entries.append(CatalogEntry(
        name="linear",
        cs=CoefficientSet(n=2, t0=0.0, t_end=3.0, P=cf.constant(zero2),
                          Q=cf.constant(zero2), R=cf.constant(zero2),
                          S=cf.constant(eye2)),
        y0=np.zeros((2, 2), dtype=np.complex128),
        formula="Y(t) = t I (P = 0 reduces the equation to Y' = S)",
        exact=lambda t: t * np.eye(2, dtype=np.complex128),
    ))

    entries.append(CatalogEntry(
        name="care_constant",
        cs=CoefficientSet(n=2, t0=0.0, t_end=12.0, P=cf.constant(eye2),
                          Q=cf.constant(zero2), R=cf.constant(zero2),
                          S=cf.constant(eye2)),
        y0=np.zeros((2, 2), dtype=np.complex128),
        formula="Y(t) = tanh(t) I, converging to the steady solution I",
        exact=lambda t: math.tanh(t) * np.eye(2, dtype=np.complex128),
    ))

    entries.append(CatalogEntry(
        name="cosh_sinh",
        cs=_scalar_set(2.0, 1.0, 0.0, 0.0, 1.0),
        y0=np.zeros((1, 1), dtype=np.complex128),
        formula="flow phi = cosh(t), psi = sinh(t), det phi = cosh(t); "
                "y = tanh(t)",
        exact=lambda t: np.array([[math.tanh(t)]], dtype=np.complex128),
    ))

    return {e.name: e for e in entries}
