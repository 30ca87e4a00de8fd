"""The stacked polynomial algebra of ``coefficients`` against list-based
reference implementations.

The reference functions below are the coefficient-list helpers the
instance generator used before the algebra moved onto coefficient stacks.
The stacked helpers must match them byte for byte, signed zeros included,
so the generator's output does not move; the digests at n = 32 pin that
output beyond the n <= 8 goldens.
"""

import hashlib
import json

import numpy as np
import pytest

from riccati_cert.coefficients import _poly_add, _poly_diff, _poly_mul
from riccati_cert.instances import InstanceSpec, gen_comparison, gen_satisfying
from riccati_cert.matrix_core import adjoint
from riccati_cert.serialize import instance_to_obj


# ---------------------------------------------------------------------------
# Reference implementations (coefficient lists)
# ---------------------------------------------------------------------------

def reference_add(a: list, b: list) -> list:
    m = max(len(a), len(b))
    out = []
    for k in range(m):
        x = a[k] if k < len(a) else np.zeros_like(a[0])
        y = b[k] if k < len(b) else np.zeros_like(b[0])
        out.append(x + y)
    return out


def reference_mul(a: list, b: list) -> list:
    out = [np.zeros_like(a[0] @ b[0]) for _ in range(len(a) + len(b) - 1)]
    for j, cj in enumerate(a):
        for k, ck in enumerate(b):
            out[j + k] = out[j + k] + cj @ ck
    return out


def reference_adjoint(a: list) -> list:
    return [c.conj().T for c in a]


def reference_diff(a: list) -> list:
    if len(a) == 1:
        return [np.zeros_like(a[0])]
    return [k * a[k] for k in range(1, len(a))]


# ---------------------------------------------------------------------------

DEGREES = range(7)


def _stack(rng, n, degree):
    """degree + 1 complex n x n coefficients, about a third of the real and
    of the imaginary parts -0.0 (set part by part: complex arithmetic would
    drop some signs)."""
    a = np.empty((degree + 1, n, n), dtype=np.complex128)
    shape = a.shape
    a.real = np.where(rng.random(shape) < 0.3, -0.0, rng.standard_normal(shape))
    a.imag = np.where(rng.random(shape) < 0.3, -0.0, rng.standard_normal(shape))
    return a


def _same(got: np.ndarray, want: list) -> bool:
    want = np.stack(want)
    return got.shape == want.shape and got.dtype == want.dtype \
        and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 8, 32])
def test_add_mul_diff_match_reference_bit_for_bit(n):
    rng = np.random.default_rng(40 + n)
    stacks = {d: _stack(rng, n, d) for d in DEGREES}
    for da in DEGREES:
        a = stacks[da]
        assert _same(_poly_diff(a), reference_diff(list(a))), ("diff", da)
        assert _same(-a, [-c for c in a]), ("neg", da)
        for db in DEGREES:
            b = stacks[db]
            assert _same(_poly_add(a, b), reference_add(list(a), list(b))), ("add", da, db)
            assert _same(_poly_mul(a, b), reference_mul(list(a), list(b))), ("mul", da, db)
            # the generator multiplies adjoints, whose layout is transposed
            assert _same(_poly_mul(adjoint(a), b),
                         reference_mul(reference_adjoint(list(a)), list(b))), ("mul*", da, db)


def test_scalar_stacks_add_and_diff():
    mu = np.array([1.0 - 0.0j, -0.0 + 2.0j, 3.0])
    assert _same(_poly_add(mu, mu[:1]), reference_add(list(mu), list(mu[:1])))
    assert _same(_poly_diff(mu), reference_diff(list(mu)))


def test_products_may_exceed_the_input_degree_cap():
    a = _stack(np.random.default_rng(5), 2, 8)
    assert _poly_mul(_poly_mul(a, a), a).shape == (25, 2, 2)


# SHA-256 of the instance objects of generated n = 32 instances, formatted as
# below (the indented layout the instance writer used when they were recorded
# with the list-based algebra).
DIGESTS = {
    ("satisfying", 0): "6a7e532edd6229c2bd39ea49d25055a4c4236a95baa3c26ce06a95cbd826ca76",
    ("comparison", 0): "36906bf5da4a7c36d88b77f35466ffff98af45985599d27ca5cb93f3e6280aa4",
    ("satisfying", 3): "3f91b8530e3a46960e77b0828e41aa3814e1806838b5038768f31c9b6505ff04",
    ("comparison", 3): "83a1678a06a7d33adf3bade152c18538302c6d563404f9ac0e3b6965f067fe78",
}


@pytest.mark.parametrize("target, seed", sorted(DIGESTS))
def test_generated_n32_instance_bytes(target, seed):
    spec = InstanceSpec(n=32, seed=seed, target=target)
    if target == "satisfying":
        cs, lam, mu, y0 = gen_satisfying(spec)
        obj = instance_to_obj(cs, y0, lam=lam, mu=mu)
    else:
        cs, y0 = gen_comparison(spec)
        obj = instance_to_obj(cs, y0)
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == DIGESTS[target, seed]
