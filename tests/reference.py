"""RealQ views of the program's integer forms, for the reference tests.

The package computes in integer numerators over one denominator and in
floats; ``RealQ`` is the rational reference the tests check against.
These helpers build the same ``RealQ`` values from a flux's ``_num`` and
``_den`` and from ``FrequencyBasis.real``.
"""

from fractions import Fraction

from apcl.flux import affine_on


def real(basis, num, den):
    """The RealQ sum_i (num_i / den) e_i."""
    return basis.real([Fraction(x, den) for x in num])


def rational(basis, r):
    """The rational ``r`` as a RealQ over ``basis``."""
    return basis.real([r] + [0] * (basis.dim - 1))


def zero(basis):
    return rational(basis, 0)


def pieces(flux):
    """``[p][k][d]``: the flux's coefficients as RealQ."""
    return tuple(
        tuple(tuple(real(flux.basis, c, flux._den) for c in comp) for comp in piece)
        for piece in flux._num
    )


def affine(scalar_flux, a, b):
    """``affine_on``'s (slope, intercept) as RealQ, or None."""
    pair = affine_on(scalar_flux, a, b)
    if pair is None:
        return None
    return tuple(real(scalar_flux.basis, c, scalar_flux._den) for c in pair)
