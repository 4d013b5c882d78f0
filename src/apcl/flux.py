"""Continuous piecewise-polynomial flux vectors with exact coefficients.

The flux phi: R -> R^n over a declared basis of q reals is stored as one
integer tensor: ``_num[p][k][d]`` is the q-tuple of integer numerators of
the degree-d coefficient of component k on piece p, and ``_den`` is one
positive denominator shared by every entry.  Exactness is the point:
continuity at breakpoints, directional combinations xi.phi, lifting to the
torus, and the linear non-degeneracy decision are all settled in Python
integers, which cannot overflow.  Floats appear only in numeric evaluation
paths, whose float tables a flux builds on first use.  RealQ, the rational
reference and the bench's input form, appears only as an accepted
coefficient: every result is integers over a denominator, or floats.

Non-degeneracy: the flux is degenerate for a group basis (lambda_1..lambda_m)
iff some nonzero integer vector kbar makes u -> (sum_j kbar_j lambda_j).phi(u)
affine on some piece, i.e. kills every coefficient of degree >= 2 there.
Each degree-d coefficient of the combination is sum_j kbar_j (lambda_j.c_d),
an exact vector of basis coordinates that vanishes iff all its coordinates
do, so the witnesses on a piece form the integer kernel of the matrix with
one row per (degree >= 2, basis coordinate) pair.  A polynomial with any
nonzero coefficient of degree >= 2 is non-affine on every interval, so the
per-piece test is complete.
"""

from __future__ import annotations

import bisect
import ctypes
import json
import logging
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .freqlattice import (
    FrequencyBasis,
    RealQ,
    SpectrumGroupBasis,
    _clear,
    _value,
    integer_kernel,
)

__all__ = [
    "PiecewiseFlux",
    "NdVerdict",
    "directional",
    "lip_bound",
    "nondegeneracy_check",
    "lift_flux",
    "affine_on",
]

log = logging.getLogger(__name__)


def _coords(basis: FrequencyBasis, c) -> tuple:
    """Rational basis coordinates of a coefficient given as RealQ, list or rational."""
    if isinstance(c, RealQ):
        if c.basis != basis:
            raise ValueError("coefficient uses a different basis")
        return c.coeffs
    if isinstance(c, (list, tuple)):
        if len(c) != basis.dim:
            raise ValueError(f"expected {basis.dim} coordinates, got {len(c)}")
        return tuple(c)
    return (c,) + (0,) * (basis.dim - 1)


def _jump(left, right, a: int, b: int) -> list[int]:
    """b^(L-1) (left - right)(a/b) per basis coordinate, L the longer length.

    Homogeneous integer Horner: sum_d (l_d - r_d) a^d b^(L-1-d), which is
    zero iff the two polynomials agree at a/b (b > 0).
    """
    size = max(len(left), len(right))
    if not size:
        return []
    zero = (0,) * len((left or right)[0])
    diff = [[x - y for x, y in zip(left[d] if d < len(left) else zero,
                                   right[d] if d < len(right) else zero)]
            for d in range(size)]
    acc, w = diff[-1], 1
    for c in diff[-2::-1]:
        w *= b
        acc = [x * a + y * w for x, y in zip(acc, c)]
    return acc


def _plan(coef: np.ndarray) -> tuple:
    """Horner plan of ascending coefficient rows ``coef``, one row per piece.

    The plan lists the columns of ``coef`` from the top one, the highest
    with a nonzero entry, down to the constant one, with None for an
    all-zero column between them; a plan with no nonzero column above the
    constant one is (zeros, c_0).  ``_horner`` evaluates it.
    """
    live = coef.any(axis=0)
    d = max((i for i in range(1, len(live)) if live[i]), default=0)
    if not d:
        return np.zeros(len(coef)), coef[:, 0]
    return (coef[:, d], *(coef[:, i] if live[i] else None for i in range(d - 1, 0, -1)),
            coef[:, 0])


# Arrays of at least this many bytes start on a 64-byte cache line
# (``_empty``).  Measured on a 2-core Xeon with AVX-512 (numpy 2.4.6), a
# two-input multiply into an output 16 bytes past a line, against one on
# a line, took 1.4 against 1.3 us at 512 cells, 3.1-3.4 against 2.0 us at
# 2048, 6-11 against 4 us at 8192 and 46-83 against 22-33 us at 65536;
# finding the line costs 1-2 us per array.  Below 64 KiB (8192
# floats) the saving is a few us at most, so smaller grids, every 1D grid
# the bench and the shipped configs use among them, keep plain numpy
# results: ``_horner`` takes its first product as ``x * c``, which at 512
# cells is about 0.5-1 us faster than a multiply into ``_empty(x)``.
_ALIGN_BYTES = 1 << 16
_LINE = 64


def _empty(like: np.ndarray) -> np.ndarray:
    """``np.empty_like`` of a float array, starting on a cache line.

    Below ``_ALIGN_BYTES`` exactly ``np.empty_like(like)``.  Above it, a
    C-contiguous view into a buffer one line longer, sliced where the line
    begins.  With AVX-512 every vector store into a misaligned array
    splits a cache line, which made a streaming pass up to about 3x
    slower; where the line falls changes no value.
    """
    if like.nbytes < _ALIGN_BYTES:
        return np.empty_like(like)
    buf = np.empty(like.size + _LINE // 8)
    # its address through a ctypes view: 0.6 us against about 1.8 us for
    # ``.ctypes.data``, which made ``lifted_nd`` run_s x1.036 (BENCH_11.json)
    addr = ctypes.addressof(ctypes.c_char.from_buffer(buf))
    skip = (-addr % _LINE) // 8
    return buf[skip:skip + like.size].reshape(like.shape)


def _horner(c, x):
    """Horner plan ``c`` = (c_d, ..., c_0) from ``_plan`` at ``x``, as a new array.

    The entries are floats, or arrays of x's shape (one coefficient per
    element).  The result is bit for bit that of
    ``numpy.polynomial.polynomial.polyval`` on the untrimmed coefficients,
    c[-1] + x*0 and then c[-i] + c0*x, for finite or NaN x:

    - (x*0 + c)*x equals c*x, so the plan starts from x*c_d, and any
      leading zero coefficients only make zeros that the first nonzero
      one replaces;
    - adding +0.0 changes nothing but -0.0 into +0.0, and a zero stays a
      zero under *x until a nonzero coefficient or the constant term,
      which is always added, fixes its sign, so the interior zeros (None)
      are skipped;
    - a constant plan (0.0, c_0) keeps x*0.0 + c_0, so NaN still propagates.
    """
    out = x * c[0] if x.nbytes < _ALIGN_BYTES else np.multiply(x, c[0], out=_empty(x))
    for a in c[1:-1]:
        if a is not None:
            out += a
        out *= x
    out += c[-1]
    return out


class PiecewiseFlux:
    """Flux vector on [u_0, u_P] given piecewise by exact polynomials.

    ``pieces[p][k]`` lists the ascending-degree coefficients of component k
    on [u_p, u_{p+1}], each a RealQ, a list of rational basis coordinates or
    a rational.  They are stored as one integer tensor, ``_num[p][k][d]`` a
    q-tuple of numerators over the common denominator ``_den``, ragged in
    degree as given; with ``den`` set, ``pieces`` already holds those
    numerators (the form derived fluxes are built in).  Continuity at
    every interior breakpoint is checked exactly at construction.
    Evaluation clamps to the working range ``urange``, the float
    breakpoint span [u_0, u_P] (with a logged warning), and takes the
    right piece at interior breakpoints, the left piece at u_P.
    """

    def __init__(self, basis: FrequencyBasis, breakpoints, pieces, *,
                 den: int | None = None):
        self.basis = basis
        self.breakpoints = tuple(
            b if isinstance(b, Fraction) else Fraction(b) for b in breakpoints
        )
        if len(self.breakpoints) < 2:
            raise ValueError("need at least two breakpoints")
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            if not a < b:
                raise ValueError("breakpoints must be strictly increasing")
        if len(pieces) != len(self.breakpoints) - 1:
            raise ValueError("piece count must be breakpoint count minus one")
        ncomp = len(pieces[0])
        if ncomp < 1:
            raise ValueError("flux needs at least one component")
        if den is None:
            nums, den = _clear(_coords(basis, c) for piece in pieces
                               for comp in piece for c in comp)
            nums = iter(nums)
            pieces = [[[next(nums) for _ in comp] for comp in piece] for piece in pieces]
        self._den = den
        self._num = tuple(
            tuple(tuple(tuple(c) for c in comp) for comp in piece) for piece in pieces
        )
        for piece in self._num:
            if len(piece) != ncomp:
                raise ValueError("all pieces must have the same component count")
        self.n = ncomp
        try:
            self.urange = (float(self.breakpoints[0]), float(self.breakpoints[-1]))
        except OverflowError:
            raise ValueError("breakpoints must lie within float range") from None
        self._check_continuity()

    # the lift of a scalar flux: (data flux, generators, their den), set by
    # ``lift_flux``, so that a step evaluates the data flux once for every
    # component
    _lift = None

    @cached_property
    def _weights(self) -> tuple:
        """Per component j, the float lambda_j if it is lambda_j.phi, phi from ``_lift``, else None.

        The floats of ``LiftedProblem.lam``, built on first numeric use, so
        the exact layer never pays for them.  A weight that is 0 or beyond
        float range is None too: that component is evaluated as itself.
        """
        if self._lift is None:
            return (None,) * self.n
        _, gens, den = self._lift
        out = []
        for lam in gens:
            try:
                w = _value(lam[0], den, self.basis.values)
            except ValueError:  # beyond float range
                w = None
            out.append(w or None)
        return tuple(out)

    @cached_property
    def _bp_f(self) -> np.ndarray:
        """The breakpoints as floats, built on first numeric use."""
        return np.array([float(b) for b in self.breakpoints])

    @cached_property
    def _coef_f(self) -> np.ndarray:
        """Float shadows ``[p, k, d]`` of the coefficients, zero-padded to one degree.

        Built on first numeric use, so the exact layer never pays for it.
        """
        deg = max(1, max(len(comp) for piece in self._num for comp in piece))
        den, values = self._den, self.basis.values
        return np.array([
            [[_value(c, den, values) for c in comp] + [0.0] * (deg - len(comp))
             for comp in piece]
            for piece in self._num
        ], dtype=float)

    @cached_property
    def _dcoef_f(self) -> np.ndarray:
        """Float derivative coefficients ``[p, k, d]``, ascending degree."""
        deg = self._coef_f.shape[2]
        if deg > 1:
            return self._coef_f[:, :, 1:] * np.arange(1, deg)
        return np.zeros((self.npieces, self.n, 1))

    @property
    def npieces(self) -> int:
        return len(self._num)

    def _check_continuity(self):
        for i in range(1, len(self.breakpoints) - 1):
            u = self.breakpoints[i]
            a, b = u.numerator, u.denominator
            for k in range(self.n):
                if any(_jump(self._num[i - 1][k], self._num[i][k], a, b)):
                    left, right = (self._at(self._num[p][k], a, b) for p in (i - 1, i))
                    raise ValueError(f"component {k} jumps at breakpoint {u}: {left} != {right}")

    def _at(self, coefs, a: int, b: int) -> str:
        """Config form of one component's exact value at a/b, e.g. ["1/9"]."""
        acc = _jump(coefs, (), a, b) or [0] * self.basis.dim
        den = self._den * b ** max(len(coefs) - 1, 0)
        return json.dumps([str(Fraction(x, den)) for x in acc])

    @cached_property
    def _inner(self) -> list[float]:
        """The interior breakpoints as floats, in order."""
        return self._bp_f[1:-1].tolist()

    @cached_property
    def _plans(self) -> tuple:
        """Per component, the ``_horner`` plans of its pieces (as floats) and of all of them.

        Built on first numeric evaluation, so the exact layer never pays for it.
        """
        out = []
        for k in range(self.n):
            coef = self._coef_f[:, k]
            pieces = tuple(
                tuple(None if c is None else float(c[0]) for c in _plan(coef[p:p + 1]))
                for p in range(self.npieces)
            )
            out.append((pieces, _plan(coef)))
        return tuple(out)

    @cached_property
    def _lip_pieces(self) -> tuple:
        """Per component, one (u_p, u_{p+1}, top, rest, crit) per piece, as Python floats.

        ``top`` and ``rest`` are the coefficients of phi_k' on the piece as
        ``_dcoef_f`` holds them, the highest one and then the others in
        descending degree (the order ``polyval`` takes them in); ``crit``
        are the real roots of phi_k'' strictly inside the piece, where
        |phi_k'| can peak between the ends.
        """
        bp = self._bp_f.tolist()
        out = []
        for k in range(self.n):
            rows = []
            for p in range(self.npieces):
                c = self._dcoef_f[p, k].tolist()
                u0, u1 = bp[p], bp[p + 1]
                dd = np.trim_zeros(self._dcoef_f[p, k, 1:] * np.arange(1, len(c)), "b")
                crit = []
                if len(dd) > 1:
                    # phi'' of degree >= 1: its real roots (a pair with a tiny
                    # imaginary part is kept too, which can only raise the bound)
                    crit = [float(r.real) for r in np.roots(dd[::-1])
                            if abs(r.imag) <= 1e-9 * max(1.0, abs(r)) and u0 < r.real < u1]
                rows.append((u0, u1, c[-1], tuple(c[-2::-1]), crit))
            out.append(tuple(rows))
        return tuple(out)

    def _clamp(self, u: np.ndarray):
        """``u`` clipped to the working range, with its least and greatest value.

        The bounds skip NaN; they are None when ``u`` is empty, holds no
        number, or had to be clipped (with a logged warning).
        """
        if not u.size:
            return u, None, None
        lo, hi = self.urange
        # fmin/fmax skip NaN the way the elementwise comparisons below do
        umin = float(np.fmin.reduce(u, axis=None))
        umax = float(np.fmax.reduce(u, axis=None))
        if umin >= lo and umax <= hi:
            return u, umin, umax
        bad = int(np.count_nonzero((u < lo) | (u > hi)))
        if bad:
            log.warning(
                "clamped %d flux argument(s) outside working range [%g, %g]",
                bad, lo, hi,
            )
            u = np.clip(u, lo, hi)
        return u, None, None

    def eval_component(self, component: int, u: np.ndarray) -> np.ndarray:
        """Vectorized single-component evaluation with the tie rules above.

        Returns a new array, which the caller may overwrite.
        """
        u, umin, umax = self._clamp(np.asarray(u, dtype=float))
        pieces, gathered = self._plans[component]
        # piece of u = count of interior breakpoints <= u: ties go right,
        # u_P stays in the last piece
        if umin is not None:
            p = bisect.bisect_right(self._inner, umin)
            if p == bisect.bisect_right(self._inner, umax):
                # the whole range lies in one piece
                return _horner(pieces[p], u)
        idx = np.searchsorted(self._bp_f[1:-1], u, side="right")
        # one coefficient per cell
        return _horner([None if c is None else c.take(idx) for c in gathered], u)


@dataclass(frozen=True)
class NdVerdict:
    """Outcome of the linear non-degeneracy decision.

    Degenerate verdicts carry a witness: integer vector kbar, the piece
    index and rational interval where the directional flux is affine, and
    the affine slope tau and intercept c there (float shadows).
    """

    nondegenerate: bool
    kbar: tuple[int, ...] | None = None
    piece: int | None = None
    interval: tuple[Fraction, Fraction] | None = None
    tau: float | None = None
    c: float | None = None


def _mul_add(acc: list[int], x, c, mul):
    """acc += x * c for two q-tuples of integer basis coordinates.

    ``acc`` is over the product of the denominators of x, c and ``mul``.
    Zero coordinates are skipped, so an undeclared product raises only when
    both of its factors are nonzero.
    """
    _, table, labels = mul
    for i, a in enumerate(x):
        if not a:
            continue
        for j, b in enumerate(c):
            if not b:
                continue
            t = table[i][j]
            if t is None:
                raise ValueError(
                    f"product of basis elements {labels[i]}*{labels[j]} "
                    "is not declared; exact multiplication undefined"
                )
            ab = a * b
            for k, w in t:
                acc[k] += ab * w


def _dot(xi, piece, mul, start: int = 0) -> list[tuple[int, ...]]:
    """Integer coefficients of u -> xi.phi(u) on one piece, degree ``start`` up.

    ``xi`` holds one q-tuple of integer numerators per flux component,
    ``piece`` is one piece of a flux's integer tensor and ``mul`` the basis
    structure constants ``FrequencyBasis.structure``; the result is over the
    product of the three denominators.  This is the one place where a frequency
    meets the flux coefficients.
    """
    q = len(mul[1])
    terms = [(x, comp) for x, comp in zip(xi, piece) if any(x)]
    out = []
    for d in range(start, max(len(comp) for comp in piece)):
        acc = [0] * q
        for x, comp in terms:
            if d < len(comp):
                _mul_add(acc, x, comp[d], mul)
        out.append(tuple(acc))
    return out


def _check_basis(flux: PiecewiseFlux, gb: SpectrumGroupBasis):
    if gb.n != flux.n:
        raise ValueError("group basis dimension disagrees with flux components")
    if gb.rank and gb.basis != flux.basis:
        raise ValueError("group basis and flux use different frequency bases")


def _check_group(flux: PiecewiseFlux, gb: SpectrumGroupBasis):
    if gb.rank < 1:
        raise ValueError("group basis must have positive rank")
    _check_basis(flux, gb)


def directional(flux: PiecewiseFlux, kbar, gb: SpectrumGroupBasis) -> PiecewiseFlux:
    """Scalar piecewise polynomial u -> xi.phi(u), xi = sum_j kbar_j lambda_j.

    Coefficients are exact; the breakpoints carry over.
    """
    kbar = tuple(int(k) for k in kbar)
    if len(kbar) != gb.rank:
        raise ValueError(f"kbar must have {gb.rank} entries")
    _check_basis(flux, gb)
    mul = flux.basis.structure
    xi = gb.vector(kbar)
    return PiecewiseFlux(flux.basis, flux.breakpoints,
                         [[_dot(xi, piece, mul)] for piece in flux._num],
                         den=gb.den * flux._den * mul[0])


def _check_range(flux: PiecewiseFlux, lo: float, hi: float):
    """Refuse a value range [lo, hi] that leaves the flux's working range."""
    rlo, rhi = flux.urange
    if lo < rlo - 1e-12 or hi > rhi + 1e-12:
        raise ValueError("[lo, hi] must lie inside the working range")


def lip_bound(flux: PiecewiseFlux, lo: float, hi: float) -> tuple[float, ...]:
    """Per-component bound on |d phi_k/du| over [lo, hi], padded by 10%.

    The max of |phi_k'| over each intersected piece, taken at the two
    clipped ends and at the real roots of phi_k'' strictly between them,
    times the deliberate 1.1 safety factor.  phi_k' is evaluated in floats
    with the operations of numpy's ``polyval``; where phi_k' is affine
    (flux degree <= 2) its rounded values are monotone, so no point
    between the ends can exceed them.
    """
    lo, hi = float(lo), float(hi)
    if not lo <= hi:
        raise ValueError("need lo <= hi")
    _check_range(flux, lo, hi)
    out = []
    for rows in flux._lip_pieces:
        best = 0.0
        for u0, u1, top, rest, crit in rows:
            # max(u0, lo) and min(u1, hi), ties to the piece end, without the calls
            a = lo if lo > u0 else u0
            b = hi if hi < u1 else u1
            if a > b:
                continue
            for x in (a, b, *[t for t in crit if a < t < b]) if crit else (a, b):
                # polyval's operations on one float, so numpy's bits
                v = x * 0.0 + top
                for ci in rest:
                    v = v * x + ci
                if abs(v) > best:
                    best = abs(v)
        out.append(1.1 * best)
    return tuple(out)


def nondegeneracy_check(flux: PiecewiseFlux, gb: SpectrumGroupBasis) -> NdVerdict:
    """Decide whether any nonzero kbar makes xi.phi affine on some piece."""
    _check_group(flux, gb)
    q = flux.basis.dim
    mul = flux.basis.structure
    for p, piece in enumerate(flux._num):
        # lambda_j . c_d for d >= 2, one matrix row per (degree, coordinate)
        dots = [_dot(lam, piece, mul, 2) for lam in gb.generators]
        rows = [[dot[d][qi] for dot in dots] for d in range(len(dots[0])) for qi in range(q)]
        kern = integer_kernel(rows, gb.rank)
        if kern:
            kbar = kern[0]
            den, values = gb.den * flux._den * mul[0], flux.basis.values
            slope, intercept = _affine_part(_dot(gb.vector(kbar), piece, mul), q)
            return NdVerdict(
                nondegenerate=False,
                kbar=kbar,
                piece=p,
                interval=(flux.breakpoints[p], flux.breakpoints[p + 1]),
                tau=_value(slope, den, values),
                c=_value(intercept, den, values),
            )
    return NdVerdict(nondegenerate=True)


def lift_flux(flux: PiecewiseFlux, gb: SpectrumGroupBasis) -> PiecewiseFlux:
    """m-component flux with components (lambda_j . phi), same breakpoints.

    The lift of a scalar flux records it and the generators (``_lift``).
    """
    _check_group(flux, gb)
    mul = flux.basis.structure
    pieces = [[_dot(lam, piece, mul) for lam in gb.generators] for piece in flux._num]
    lifted = PiecewiseFlux(flux.basis, flux.breakpoints, pieces,
                           den=gb.den * flux._den * mul[0])
    if flux.n == 1:
        lifted._lift = (flux, gb.generators, gb.den)
    return lifted


def _affine_part(coeffs, q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(slope, intercept) of one component's coefficient q-tuples, zero where missing."""
    zero = (0,) * q
    return (coeffs[1] if len(coeffs) > 1 else zero, coeffs[0] if coeffs else zero)


def affine_on(scalar_flux: PiecewiseFlux, a: Fraction, b: Fraction):
    """(slope, intercept) if the scalar flux is affine on [a, b].

    Each is a q-tuple of integer numerators over ``scalar_flux._den``.
    Returns None when any overlapped piece has a surviving coefficient of
    degree >= 2 or the affine parts disagree between pieces.
    """
    if scalar_flux.n != 1:
        raise ValueError("affine_on expects a scalar flux")
    a, b = Fraction(a), Fraction(b)
    if not a < b:
        raise ValueError("need a < b")
    bp = scalar_flux.breakpoints
    if a < bp[0] or b > bp[-1]:
        raise ValueError("[a, b] must lie inside the breakpoint span")
    overlapped = [comp for (comp,), lo, hi in zip(scalar_flux._num, bp, bp[1:])
                  if lo < b and hi > a]
    if any(any(c) for comp in overlapped for c in comp[2:]):
        return None
    pairs = {_affine_part(comp, scalar_flux.basis.dim) for comp in overlapped}
    return pairs.pop() if len(pairs) == 1 else None
