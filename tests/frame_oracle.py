"""Reference algebra of cor3.2's derivation, which no checker runs.

cor3.2 judges the frame term T and the condition matrix C of
``criteria._sqrt_frame``. Its derivation rewrites the equation in the
sqrt(P) frame with the factors F, L and the source term D below; for a skew
T, D + D* = -C. The tests check that identity, and this module's sqrt(P)'
against finite differences of the checker's square root, so this is a
test oracle, kept apart from the package.
"""

import numpy as np

from riccati_cert import coefficients as cf
from riccati_cert.criteria import _sqrt_frame
from riccati_cert.matrix_core import _hermitian_sqrt, adjoint


def sqrt_derivative(p, pdot):
    """Time derivative of t -> sqrt(P(t)) from P > 0 and P'.

    Solves X sqrt(P) + sqrt(P) X = P' entrywise in the eigenbasis of P:
    with eigenvalues s_i of sqrt(P), Xtilde_ij = Pdot_tilde_ij / (s_i + s_j).
    """
    w, v = np.linalg.eigh((p + adjoint(p)) / 2)
    s = np.sqrt(w)
    x = v @ ((adjoint(v) @ pdot @ v) / (s[:, None] + s[None, :])) @ adjoint(v)
    return (x + adjoint(x)) / 2


def frame(cs, nu, t):
    """(T, C) at time t, by the checker's formula on the checker's sqrt(P);
    ``nu`` None is the zero shift."""
    nu = cf._require_gauge(nu, cs.n, "nu")
    p, q, r, s = (f.eval(t) for f in (cs.P, cs.Q, cs.R, cs.S))
    return _sqrt_frame(_hermitian_sqrt(p, "frame oracle"), q, r, s, nu.eval(t))


def _factors(sp, spdot, q, r):
    f = np.linalg.solve(sp.T, (sp @ q - spdot).T).T
    return f, np.linalg.solve(sp, r @ sp - spdot)


def factors(cs, t):
    """The unique F, L with F sqrt(P) = sqrt(P) Q - sqrt(P)' and
    sqrt(P) L = R sqrt(P) - sqrt(P)' at time t."""
    p = cs.P.eval(t)
    return _factors(_hermitian_sqrt(p, "frame oracle"), sqrt_derivative(p, cs.P.derivative(t)),
                    cs.Q.eval(t), cs.R.eval(t))


def source_term(cs, nu, t):
    """Source term D(t) of the frame-shifted quadratic equation:

        D = T' + T^2 + F T + T L - sqrt(P) S sqrt(P).

    T' is exact: with A = Q* - R, sp = sqrt(P) and sp' from ``sqrt_derivative``,
    T' = (-sp^{-1} sp' sp^{-1} A sp + sp^{-1} A' sp + sp^{-1} A sp' + nu' I) / 2.
    For skew T the identity
    D + D* = -2 T^2 + (nu - conj(nu)) T - sqrt(P)(S + S*)sqrt(P) holds,
    which ties this term to cor3.2's condition matrix.
    """
    nu = cf._require_gauge(nu, cs.n, "nu")
    t = float(t)
    p, q, r, s = (f.eval(t) for f in (cs.P, cs.Q, cs.R, cs.S))
    sp = _hermitian_sqrt(p, "frame oracle")
    spdot = sqrt_derivative(p, cs.P.derivative(t))
    a = adjoint(q) - r
    adot = adjoint(cs.Q.derivative(t)) - cs.R.derivative(t)
    t_term = _sqrt_frame(sp, q, r, s, nu.eval(t))[0]
    tdot = (np.linalg.solve(sp, adot @ sp + a @ spdot - spdot @ np.linalg.solve(sp, a) @ sp)
            + nu.derivative(t) * np.eye(cs.n)) / 2.0
    f, l = _factors(sp, spdot, q, r)
    return tdot + t_term @ t_term + f @ t_term + t_term @ l - sp @ s @ sp
