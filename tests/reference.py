"""Reference forms of what the program computes, for the reference tests.

The package computes in integer numerators over one denominator and in
floats; ``RealQ`` is the rational reference the tests check against.
These helpers build the same ``RealQ`` values from a flux's ``_num`` and
``_den`` and from ``FrequencyBasis.real``.  ``trig_values`` and
``cell_average`` are the complex sums over every key that a trigonometric
polynomial's values and cell averages were first taken from,
``lift_points`` the ``np.mod`` form of the lift z + Lambda x mod 1,
``orbit_mean`` the whole-cube form of ``LiftedProblem.orbit_mean``,
``hermite`` the sort-and-reduce Euclid form of the Hermite reduction,
``kernel`` the integer kernel found by Hermite reduction alone, and
``trig_core`` a trigonometric polynomial's spectrum and pairs as first
normalised, with a sort key taken for both keys of each pair.
"""

import math
from fractions import Fraction

import numpy as np

from apcl.flux import affine_on
from apcl.freqlattice import Frequency, _numerators
from apcl.lift import interp_periodic
from apcl.solver import CellField, _times_per_axis

# the imaginary residue of a complex sum over every key, as a share of sum |a|
IMAG_TOL = 1e-12


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


def _real(p, vals):
    """``vals.real``, asserting that |imag| <= IMAG_TOL max(sum |a|, 1e-300) over ``p``'s terms."""
    resid = float(np.max(np.abs(vals.imag), initial=0.0))
    scale = max(math.fsum(abs(a) for a in p.terms.values()), 1e-300)
    assert resid <= IMAG_TOL * scale, f"imaginary residue {resid:.3e} exceeds tolerance"
    return vals.real


def trig_values(p, xs):
    """Re(exp(2 pi i x.F) @ a) over every key of ``p``'s spectrum, at points ``xs`` (N, dim).

    F holds the keys' float rows (``Frequency.floats``, or the integer
    vector), a their coefficients; the imaginary residue must be roundoff.
    """
    keys = p.spectrum()
    xs = np.asarray(xs, dtype=float)
    if not keys:
        return np.zeros(len(xs))
    rows = np.array([k.floats() if hasattr(k, "floats") else k for k in keys], dtype=float)
    amps = np.array([p.terms[k] for k in keys], dtype=complex)
    return _real(p, np.exp(2j * np.pi * (xs @ rows.reshape(len(keys), -1).T)) @ amps)


def cell_average(p, g):
    """The exact cell averages of torus polynomial ``p`` on grid ``g``, as a sum over every key.

    Each key k adds its complex product a_k prod_j sinc(k_j h_j)
    e^{2 pi i k_j y_j} at the cell midpoints y, in ``p.terms`` order; the
    imaginary residue must be roundoff.
    """
    acc = np.zeros(g.shape, dtype=complex)
    for k, amp in p.terms.items():
        vecs = [np.sinc(kj * hj) * np.exp(2j * np.pi * kj * (np.arange(nj) + 0.5) * hj)
                for kj, nj, hj in zip(k, g.shape, g.h)]
        acc = acc + _times_per_axis(np.asarray(amp, dtype=complex), vecs)
    return CellField(g, _real(p, acc))


def lift_points(pb, xs, z):
    """z + Lambda x mod 1 for points ``xs`` (N, n), each reduction by ``np.mod``."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    return np.mod(xs @ pb.lam.T + np.mod(np.asarray(z, dtype=float), 1.0), 1.0)


def orbit_mean(pb, w, z, radius, samples_per_unit):
    """The mean of w over the lifted cube, every midpoint made, lifted and interpolated at once.

    The midpoints come from ``np.meshgrid`` in C order, and ``np.mean``
    takes the pairwise sum over the one flat array of their values.
    """
    per_axis = max(1, int(round(radius * samples_per_unit)))
    axis = (np.arange(per_axis) + 0.5) * (radius / per_axis) - radius / 2.0
    grids = np.meshgrid(*([axis] * pb.n), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    return float(np.mean(interp_periodic(w, lift_points(pb, pts, z))))


def hermite(mat, ncols=None):
    """In-place row Hermite reduction by sorted Euclid steps; returns (rows, pivot_columns).

    The contract of ``freqlattice._hermite``: per column, the rows from the
    next pivot row down are reduced by their smallest nonzero entry, sorted
    again and reduced until at most one nonzero entry is left, which is
    made positive and reduces the entries above it into [0, pivot).
    """
    if not mat:
        return mat, []
    width = ncols if ncols is not None else len(mat[0])
    nrows = len(mat)
    pivots = []
    r = 0
    for c in range(width):
        while True:
            live = [i for i in range(r, nrows) if mat[i][c]]
            if len(live) <= 1:
                break
            live.sort(key=lambda i: abs(mat[i][c]))
            base = live[0]
            for i in live[1:]:
                q = mat[i][c] // mat[base][c]
                if q:
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[base])]
        live = [i for i in range(r, nrows) if mat[i][c]]
        if not live:
            continue
        i0 = live[0]
        mat[r], mat[i0] = mat[i0], mat[r]
        if mat[r][c] < 0:
            mat[r] = [-x for x in mat[r]]
        p = mat[r][c]
        for i in range(r):
            q = mat[i][c] // p
            if q:
                mat[i] = [x - q * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat, pivots


def kernel(rows, ncols):
    """``freqlattice.integer_kernel`` without its rank test, over ``hermite``.

    The transpose of the matrix, each row divided by its gcd and zero rows
    dropped, with an identity tail is Hermite-reduced; the tails of the
    rows whose profile part reduces to zero span the kernel lattice, and
    their own Hermite rows are the canonical basis.
    """
    if ncols == 0:
        return []
    int_rows = [[x // math.gcd(*r) for x in r] for r in rows if any(r)]
    nprof = len(int_rows)
    work = [[int_rows[i][j] for i in range(nprof)] + [int(i == j) for i in range(ncols)]
            for j in range(ncols)]
    work, pivots = hermite(work, ncols=nprof)
    tails = [row[nprof:] for row in work[len(pivots):]]
    if not tails:
        return []
    tails, _ = hermite(tails)
    out = [tuple(vec) for vec in tails if any(vec)]
    # the kernel lattice is saturated, so its Hermite rows are primitive
    assert all(math.gcd(*vec) == 1 for vec in out)
    return out


def normalize_real_terms(items, negate, sort_key, row):
    """``trigpoly._normalize_real_terms`` with ``sort_key`` taken of both keys of a pair.

    The pair's first key is the one whose own sort key compares smaller.
    """
    terms = {}
    zero = None
    pairs = []
    for key, amp in items:
        amp = complex(amp)
        if amp == 0:
            continue
        neg = negate(key)
        if key == neg:
            if amp.imag != 0.0:
                raise ValueError(f"coefficient at self-paired frequency {key} must be real")
            zero = key
        if key in terms:
            if terms[key] != amp:
                raise ValueError(f"conflicting coefficients at {key}")
        elif key != neg:
            at_key, at_neg = sort_key(key), sort_key(neg)
            pairs.append((at_key, key, neg, row(key)) if at_key < at_neg
                         else (at_neg, neg, key, row(neg)))
        terms[key] = amp
        terms[neg] = amp.conjugate()
    return terms, zero, pairs


def trig_core(dim, items, negate, sort_key, row):
    """(spectrum, pair rows, pair amplitudes) as ``_TrigCore`` builds them, over ``normalize_real_terms``.

    Refuses as the core does: ValueError from the normaliser, then
    OverflowError when the sum of |a| over the terms is not a finite float.
    """
    terms, zero, pairs = normalize_real_terms(items, negate, sort_key, row)
    try:
        amp_scale = math.fsum(abs(a) for a in terms.values())
    except OverflowError:
        amp_scale = math.inf
    if not math.isfinite(amp_scale):
        raise OverflowError("the sum of |re + i im| over the terms and their "
                            "conjugates lies beyond float range")
    pairs.sort(key=lambda p: p[0])
    keys = ([p[1] for p in pairs] + ([] if zero is None else [zero])
            + [p[2] for p in reversed(pairs)])
    rows = np.array([p[3] for p in pairs], dtype=float).reshape(len(pairs), dim)
    amps = np.array([terms[p[1]] for p in pairs], dtype=complex)
    return tuple(keys), rows, amps


def trig_poly_core(basis, n, items):
    """``trig_core`` of a TrigPoly's terms: negation by the checked constructor,
    sort keys the numerators over the terms' common denominator."""
    den = math.lcm(*(f.den for f, _ in items))
    return trig_core(n, items,
                     lambda f: Frequency(f.basis, [[-x for x in c] for c in f.num], f.den),
                     lambda f: _numerators(f, den), Frequency.floats)


def torus_poly_core(m, items):
    """``trig_core`` of a TorusPoly's integer keys, each its own sort key."""
    return trig_core(m, items, lambda k: tuple(-c for c in k), lambda k: k, tuple)
