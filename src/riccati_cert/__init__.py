"""Global-solvability certificates for matrix Riccati differential equations.

The package decides, on concrete coefficient data, whether the quadratic
matrix equation Y' + Y P(t) Y + Q(t) Y + Y R(t) - S(t) = 0 is certified
to have global solutions; integrates it by two independent methods (the
equation itself and the equivalent linear flow Y = Psi Phi^{-1}); and
verifies the certified Hermitian-part lower bound along the computed
trajectories.

The modules are the API: each name is imported from the module that
defines it (``from riccati_cert import coefficients``), not from here.
"""

__version__ = "0.1.0"
