"""Continuous piecewise-polynomial flux vectors with exact coefficients.

The flux phi: R -> R^n over a declared basis of q reals is stored as one
integer tensor: ``_num[p][k][d]`` is the q-tuple of integer numerators of
the degree-d coefficient of component k on piece p, and ``_den`` is one
positive denominator shared by every entry.  Exactness is the point:
continuity at breakpoints, directional combinations xi.phi, lifting to the
torus, and the linear non-degeneracy decision are all settled in Python
integers, which cannot overflow.  A flux derives each of its lifts once:
it keeps the lambda_j.phi tensor per group (``_lift``), which
``lift_flux`` hands out as a flux, a directional flux combines with
integers and the non-degeneracy decision reads.
Floats appear only in numeric evaluation paths, whose float tables a flux
builds on first use.  RealQ, the rational reference and the bench's input
form, appears only as an accepted coefficient: every result is integers
over a denominator, or floats.

Non-degeneracy: the flux is degenerate for a group basis (lambda_1..lambda_m)
iff some nonzero integer vector kbar makes u -> (sum_j kbar_j lambda_j).phi(u)
affine on some piece, i.e. kills every coefficient of degree >= 2 there.
Each degree-d coefficient of the combination is sum_j kbar_j (lambda_j.c_d),
an exact vector of basis coordinates that vanishes iff all its coordinates
do, so the witnesses on a piece form the integer kernel of the matrix with
one row per (degree >= 2, basis coordinate) pair, whose entries are the
lift's lambda_j.c_d.  The per-piece test decides the matrix's rank
first: full column rank means no witness, and only a rank-deficient piece
has its kernel computed (``integer_kernel``).  A polynomial with any
nonzero coefficient of degree >= 2 is non-affine on every interval, so the
per-piece test is complete.
"""

from __future__ import annotations

import bisect
import ctypes
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .freqlattice import (
    FrequencyBasis,
    RealQ,
    SpectrumGroupBasis,
    _clear,
    _config_form,
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


def _check_basis(what: str, got: FrequencyBasis, basis: FrequencyBasis):
    """Refuse ``what`` over the basis ``got`` for a flux over another basis, ``basis``."""
    if got != basis:
        # bases of equal labels differ in their values, so name those too
        same = got.labels == basis.labels

        def form(b):
            return "[" + ", ".join(f"{s}={v!r}" if same else s for s, v in zip(b.labels, b.values)) + "]"
        raise ValueError(f"{what} over the basis {form(got)} for a flux over {form(basis)}")


def _coords(basis: FrequencyBasis, c) -> tuple:
    """Rational basis coordinates of a coefficient given as RealQ, list or rational."""
    if isinstance(c, RealQ):
        _check_basis("a coefficient", c.basis, basis)
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


def _derivative(c: np.ndarray) -> np.ndarray:
    """Ascending float coefficients of the derivative of ``c``; [0.0] for a constant."""
    return c[1:] * np.arange(1, len(c)) if len(c) > 1 else np.zeros(1)


def _constant(c: np.ndarray) -> np.ndarray:
    """The one entry of ``c`` as a read-only 0-d float array."""
    out = c.reshape(()).copy()
    out.flags.writeable = False
    return out


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

    The entries are 0-d arrays, or arrays of x's shape (one coefficient per
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
    degree as given.  The constructor checks the breakpoints, the shape and
    continuity at every interior breakpoint exactly.  A flux derived from a
    checked one (``_derived``: its lift, a directional flux) is a Q-linear
    image of it, so it is continuous too and is not checked again.
    Evaluation takes the end pieces up to 1e-12 past the working range
    ``urange``, the float breakpoint span [u_0, u_P], and refuses values
    beyond (``_check_range``); it takes the right piece at interior
    breakpoints, the left piece at u_P.
    """

    def __init__(self, basis: FrequencyBasis, breakpoints, pieces):
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
        nums, self._den = _clear(_coords(basis, c) for piece in pieces
                                 for comp in piece for c in comp)
        nums = iter(nums)
        self._num = tuple(
            tuple(tuple(tuple(next(nums)) for _ in comp) for comp in piece) for piece in pieces
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

    @classmethod
    def _derived(cls, source: "PiecewiseFlux", pieces, den: int) -> "PiecewiseFlux":
        """The flux with numerators ``pieces[p][k][d]`` (q-tuples) over ``den``,
        on ``source``'s basis and breakpoints.

        Unchecked: for Q-linear images of the checked ``source`` only, as
        ``_lift`` and ``directional`` build them, tuples throughout; the
        pieces are stored as given, so a lift's ``_num`` is its tensor.
        """
        self = cls.__new__(cls)
        self.basis, self.breakpoints, self.urange = source.basis, source.breakpoints, source.urange
        self._den = den
        self._num = pieces
        self.n = len(self._num[0])
        return self

    @cached_property
    def _lifts(self) -> dict:
        """``_lift``'s results for this flux, keyed by the group's (rows, den)."""
        return {}

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
        return json.dumps(_config_form(acc, den))

    @cached_property
    def _affine_pieces(self) -> dict:
        """{p: the float (c_0, c_1) of each component} for every piece p that is affine.

        A piece is affine when every component has degree <= 1 on it,
        decided exactly.  ``solver.advance`` reads this to carry a bound
        (``CellField.kept``); a flux with no affine piece, such as Burgers,
        costs it that one read.
        """
        return {p: tuple((c[0], c[1] if len(c) > 1 else 0.0) for c in self._coef_f[p].tolist())
                for p, piece in enumerate(self._num)
                if not any(any(c) for comp in piece for c in comp[2:])}

    @cached_property
    def _inner(self) -> list[float]:
        """The interior breakpoints as floats, in order."""
        return self._bp_f[1:-1].tolist()

    @cached_property
    def _plans(self) -> tuple:
        """Per component, the ``_horner`` plans of its pieces (as 0-d arrays) and of all of them.

        Built on first numeric evaluation, so the exact layer never pays for
        it.  A piece's coefficients are read-only 0-d float arrays: a ufunc
        converts a Python float operand anew on every call, about 0.2 us,
        a third of the call on 128 cells.
        """
        out = []
        for k in range(self.n):
            coef = self._coef_f[:, k]
            pieces = tuple(
                tuple(None if c is None else _constant(c) for c in _plan(coef[p:p + 1]))
                for p in range(self.npieces)
            )
            out.append((pieces, _plan(coef)))
        return tuple(out)

    @cached_property
    def _lip_pieces(self) -> tuple:
        """Per component, one (u_p, u_{p+1}, top, rest, crit) per piece, as Python floats.

        ``top`` and ``rest`` are the coefficients of phi_k' on the piece as
        ``_derivative`` gives them, the highest one and then the others in
        descending degree (the order ``polyval`` takes them in); ``crit``
        are the real roots of phi_k'' strictly inside the piece, where
        |phi_k'| can peak between the ends.  The outer ends are -inf and
        inf, so that the end pieces cover the slack ``_check_range`` allows.
        """
        bp = self._bp_f.tolist()
        ends = [-np.inf, *bp[1:-1], np.inf]
        out = []
        for k in range(self.n):
            rows = []
            for p in range(self.npieces):
                d1 = _derivative(self._coef_f[p, k])
                c = d1.tolist()
                u0, u1 = bp[p], bp[p + 1]
                dd = np.trim_zeros(_derivative(d1), "b")
                crit = []
                if len(dd) > 1:
                    # phi'' of degree >= 1: its real roots (a pair with a tiny
                    # imaginary part is kept too, which can only raise the bound)
                    crit = [float(r.real) for r in np.roots(dd[::-1])
                            if abs(r.imag) <= 1e-9 * max(1.0, abs(r)) and u0 < r.real < u1]
                rows.append((ends[p], ends[p + 1], c[-1], tuple(c[-2::-1]), crit))
            out.append(tuple(rows))
        return tuple(out)

    def eval_component(self, component: int, u) -> np.ndarray:
        """Vectorized single-component evaluation with the tie rules above.

        ``u`` is an array, or a field that holds its values' range: anything
        with ``values``, ``vmin``, ``vmax`` and ``kept``, as
        ``solver.CellField`` has.  A field this flux stepped on a carried
        bound (``kept``) hands over that bound, which holds its values, so
        its range is not reduced; any other field's range is read, and
        reduced again only if it is NaN.  Refuses values beyond the working
        range (``_check_range``).  Returns a new array, which the caller
        may overwrite.
        """
        if hasattr(u, "kept"):
            kept = u.kept
            if kept is not None and kept[0] is self:
                umin, umax = kept[1], kept[2]
            else:
                umin, umax = u.vmin, u.vmax
            u = u.values
        else:
            umin = umax = math.nan
            u = np.asarray(u, dtype=float)
        pieces, gathered = self._plans[component]
        if u.size:
            if math.isnan(umin) or math.isnan(umax):
                # fmin/fmax skip NaN, as the range check and the piece choice
                # do; a field's NaN-propagating range does not
                umin = float(np.fmin.reduce(u, axis=None))
                umax = float(np.fmax.reduce(u, axis=None))
            _check_range(self, umin, umax)
            # piece of u = count of interior breakpoints <= u: ties go right,
            # u_P stays in the last piece
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


def _dot(xi, piece, mul) -> tuple:
    """Integer coefficients of u -> xi.phi(u) on one piece, one entry per degree.

    ``xi`` holds one q-tuple of integer numerators per flux component,
    ``piece`` is one piece of a flux's integer tensor and ``mul`` the basis
    structure constants ``FrequencyBasis.structure``; the result is over the
    product of the three denominators.  This is the one place where a frequency
    meets the flux coefficients.  Each degree accumulates x_i c_j times the
    structure constants of e_i e_j, over the components, then i, then j,
    skipping zero coordinates, so an undeclared product counts only when
    both of its factors are nonzero.  An entry that needs a product of basis
    elements the basis does not declare holds, in place of its q-tuple, the
    message of the first such product it meets, so a caller refuses only
    the entries it reads (``_refusal``).
    """
    _, table, labels = mul
    q = len(table)
    terms = [(x, comp) for x, comp in zip(xi, piece) if any(x)]
    out = []
    for d in range(max(len(comp) for comp in piece)):
        acc = [0] * q
        try:
            for x, comp in terms:
                if d >= len(comp):
                    continue
                c = comp[d]
                for i, a in enumerate(x):
                    if not a:
                        continue
                    row = table[i]
                    for j, b in enumerate(c):
                        if not b:
                            continue
                        t = row[j]
                        if t is None:
                            raise ValueError(
                                f"product of basis elements {labels[i]}*{labels[j]} "
                                "is not declared; exact multiplication undefined"
                            )
                        ab = a * b
                        for k, w in t:
                            acc[k] += ab * w
        except ValueError as e:
            out.append(str(e))
        else:
            out.append(tuple(acc))
    return tuple(out)


def _combine(kbar, vecs) -> tuple[int, ...]:
    """sum_j kbar_j vecs[j] for integer q-tuples ``vecs``, as a q-tuple.

    The exact layer's one integer combination: a component of
    xi = sum_j kbar_j lambda_j, or a degree of xi.phi from the lift's lambda_j.c_d.
    """
    return tuple([sum(map(operator.mul, kbar, col)) for col in zip(*vecs)])


def _refusal(entries) -> str | None:
    """The first message among ``_dot``'s ``entries``, or None."""
    return next((e for e in entries if e.__class__ is str), None)


def _check_components(flux: PiecewiseFlux, n: int, grid: bool = False):
    """Refuse a flux without one component per axis of n-dimensional frequencies, or grid."""
    if flux.n != n:
        where = f"on a {n}-dimensional grid" if grid else f"for {n}-dimensional frequencies"
        raise ValueError(f"a {flux.n}-component flux {where}")


def _check_group(flux: PiecewiseFlux, gb: SpectrumGroupBasis):
    """Refuse rank 0, the one place a run does: no xi != 0 to decide, no torus to lift to."""
    if gb.rank < 1:
        raise ValueError("group of rank 0 (constant data or a zero group) holds no xi != 0")
    _check_components(flux, gb.n)
    _check_basis("a group", gb.basis, flux.basis)


def directional(flux: PiecewiseFlux, kbar, gb: SpectrumGroupBasis) -> PiecewiseFlux:
    """Scalar piecewise polynomial u -> xi.phi(u), xi = sum_j kbar_j lambda_j.

    Built as sum_j kbar_j (lambda_j.phi) from the components of the flux's
    lift over ``gb`` (``lift_flux``, which derives it once), over the lift's
    denominator: each degree's coefficient is the ``_combine`` of the
    lift's lambda_j.c_d.  Coefficients are exact; the breakpoints carry
    over.  It raises whatever the lift raises, before it reads kbar: a
    group of rank 0, or a product of basis elements the basis does not
    declare, even on a generator whose kbar_j is 0.
    """
    kbar = tuple(int(k) for k in kbar)
    lifted = lift_flux(flux, gb)
    if len(kbar) != gb.rank:
        raise ValueError(f"kbar {[*kbar]} has {len(kbar)} entries for a group of rank {gb.rank}")
    # zip(*piece) holds lambda_j.c_d for every j, per degree d: every lift
    # component of a piece has the same degrees
    pieces = tuple([(tuple([_combine(kbar, dots) for dots in zip(*piece)]),)
                    for piece in lifted._num])
    return PiecewiseFlux._derived(flux, pieces, lifted._den)


def _check_range(flux: PiecewiseFlux, lo: float, hi: float):
    """Refuse values [lo, hi] that reach more than 1e-12 past the flux's working range."""
    rlo, rhi = flux.urange
    if lo < rlo - 1e-12 or hi > rhi + 1e-12:
        raise ValueError(f"values [{lo!r}, {hi!r}] leave the working range "
                         f"[{rlo!r}, {rhi!r}] of the flux")


def lip_bound(flux: PiecewiseFlux, component: int, lo: float, hi: float) -> float:
    """Max of |d phi_k/du| over [lo, hi] for k = ``component``, with no safety factor.

    The max of |phi_k'| over each piece's share of [lo, hi] (the end
    pieces reach into the slack past the span, as in evaluation), taken at
    the share's ends and at the real roots of phi_k'' strictly between
    them.  A monotone sweep needs alpha_k >= |phi_k'| and nothing more, so
    the max itself is returned.  phi_k' is evaluated in floats with the
    operations of numpy's ``polyval``.  Where phi_k' is affine (flux degree
    <= 2) the max is at an end, and its rounded values are monotone, so no
    float between the ends exceeds the result: it is exact up to the
    rounding of phi_k' at the end.  Above degree 2 an interior peak sits at
    a root of phi_k'' that ``np.roots`` returns with an error delta; as
    phi_k'' vanishes there, phi_k' at it is off the true peak by
    O(delta^2), second order, far below the rounding of a step.
    """
    lo, hi = float(lo), float(hi)
    if not lo <= hi:
        raise ValueError("need lo <= hi")
    _check_range(flux, lo, hi)
    best = 0.0
    for u0, u1, top, rest, crit in flux._lip_pieces[component]:
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
    return best


def nondegeneracy_check(flux: PiecewiseFlux, gb: SpectrumGroupBasis) -> NdVerdict:
    """Decide whether any nonzero kbar makes xi.phi affine on some piece.

    The lambda_j.c_d of degree >= 2 come from the flux's lift over ``gb``
    (``_lift``), which a later ``lift_flux`` or ``directional`` over the
    same group reuses.  Pieces are read in order up to the first with a
    witness, and only their degree >= 2 entries may refuse an undeclared
    basis product; the witness's slope and intercept are contracted from
    xi = sum_j kbar_j lambda_j itself (``_combine`` of the generators per
    component), on degrees 0 and 1 of its piece, where the lift's
    lambda_j.c_d may need products that xi's do not.
    """
    _check_group(flux, gb)
    q = flux.basis.dim
    mul = flux.basis.structure
    tensor, den, lifted = _lift(flux, gb)
    for p, dots in enumerate(tensor):
        if lifted.__class__ is str and (refusal := _refusal(e for dot in dots for e in dot[2:])):
            raise ValueError(refusal)
        # lambda_j . c_d for d >= 2, one matrix row per (degree, coordinate)
        rows = [[dot[d][qi] for dot in dots] for d in range(2, len(dots[0])) for qi in range(q)]
        kern = integer_kernel(rows, gb.rank)
        if kern:
            kbar = kern[0]
            xi = [_combine(kbar, lams) for lams in zip(*gb.generators)]
            affine = _dot(xi, [comp[:2] for comp in flux._num[p]], mul)
            if refusal := _refusal(affine):
                raise ValueError(refusal)
            slope, intercept = _affine_part(affine, q)
            return NdVerdict(
                nondegenerate=False,
                kbar=kbar,
                piece=p,
                interval=(flux.breakpoints[p], flux.breakpoints[p + 1]),
                tau=_value(slope, den, flux.basis.values),
                c=_value(intercept, den, flux.basis.values),
            )
    return NdVerdict(nondegenerate=True)


def _lift(flux: PiecewiseFlux, gb: SpectrumGroupBasis) -> tuple:
    """(tensor, den, lifted): the lift of ``flux`` over ``gb``, derived once.

    ``tensor[p][j]`` is the tuple ``_dot(lambda_j, piece p)``, over ``den``,
    the group's, the flux's and the structure constants' denominators
    multiplied.  ``lifted`` is the flux whose ``_num`` is that tensor, or,
    when an entry holds a refusal, the first one in (piece, generator,
    degree) order, which is what building the flux refuses.  Kept on the
    flux, keyed by the group's canonical (rows, den), which with the flux's
    own basis fixes it, so equal groups share one lift.
    """
    key = (gb.rows, gb.den)
    got = flux._lifts.get(key)
    if got is None:
        mul = flux.basis.structure
        tensor = tuple([tuple([_dot(lam, piece, mul) for lam in gb.generators])
                        for piece in flux._num])
        den = gb.den * flux._den * mul[0]
        lifted = (_refusal(e for dots in tensor for dot in dots for e in dot)
                  or PiecewiseFlux._derived(flux, tensor, den))
        got = flux._lifts[key] = (tensor, den, lifted)
    return got


def lift_flux(flux: PiecewiseFlux, gb: SpectrumGroupBasis) -> PiecewiseFlux:
    """m-component flux with components (lambda_j . phi), same breakpoints.

    A flux derives each of its lifts once (``_lift``), so every call over
    an equal group returns the same flux, or refuses with the same
    undeclared product.  The group is checked on every call.
    """
    _check_group(flux, gb)
    lifted = _lift(flux, gb)[2]
    if lifted.__class__ is str:
        raise ValueError(lifted)
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
    a = a if isinstance(a, Fraction) else Fraction(a)
    b = b if isinstance(b, Fraction) else Fraction(b)
    if not a < b:
        raise ValueError("need a < b")
    bp = scalar_flux.breakpoints
    if a < bp[0] or b > bp[-1]:
        raise ValueError(f"[a, b] = [{a}, {b}] leaves the breakpoint span [{bp[0]}, {bp[-1]}]")
    overlapped = [comp for (comp,), lo, hi in zip(scalar_flux._num, bp, bp[1:])
                  if lo < b and hi > a]
    if any(any(c) for comp in overlapped for c in comp[2:]):
        return None
    pairs = {_affine_part(comp, scalar_flux.basis.dim) for comp in overlapped}
    return pairs.pop() if len(pairs) == 1 else None
