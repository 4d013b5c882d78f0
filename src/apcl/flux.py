"""Continuous piecewise-polynomial flux vectors with exact coefficients.

The flux phi: R -> R^n is stored per piece and per component as RealQ
polynomial coefficients over exact rational breakpoints.  Exactness is the
point: continuity at breakpoints, directional combinations xi.phi, lifting
to the torus, and the linear non-degeneracy decision are all settled in
rational arithmetic; floats appear only in numeric evaluation paths.

Non-degeneracy: the flux is degenerate for a group basis (lambda_1..lambda_m)
iff some nonzero integer vector kbar makes u -> (sum_j kbar_j lambda_j).phi(u)
affine on some piece, i.e. kills every coefficient of degree >= 2 there.
Each degree-d coefficient of the combination is sum_j kbar_j (lambda_j.c_d),
an exact RealQ that vanishes iff all its rational coordinates do, so the
witnesses on a piece form the integer kernel of the matrix with one row per
(degree >= 2, basis coordinate) pair.  A polynomial with any nonzero
coefficient of degree >= 2 is non-affine on every interval, so the per-piece
test is complete.
"""

from __future__ import annotations

import bisect
import logging
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .freqlattice import (
    FrequencyBasis,
    RealQ,
    SpectrumGroupBasis,
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


def _as_realq(basis: FrequencyBasis, c) -> RealQ:
    if isinstance(c, RealQ):
        if c.basis != basis:
            raise ValueError("coefficient uses a different basis")
        return c
    if isinstance(c, (list, tuple)):
        return basis.real(c)
    return basis.from_rational(c)


def _horner(c, x):
    """Ascending-degree polynomial ``c`` at ``x``, evaluated in place.

    The operations and their order are those of
    ``numpy.polynomial.polynomial.polyval``, c[-1] + x*0 and then
    c[-i] + c0*x, so the values are bit for bit the same.  ``c`` has shape
    (degree,) or (degree,) + x.shape, one coefficient list per element.
    """
    out = x * 0.0
    out += c[-1]
    for a in c[-2::-1]:
        out *= x
        out += a
    return out


def _eval_exact(coeffs: tuple[RealQ, ...], basis: FrequencyBasis, u: Fraction) -> RealQ:
    # Horner with rational scaling only, so the result stays exact
    acc = basis.zero
    for c in reversed(coeffs):
        acc = acc.scale(u) + c
    return acc


class PiecewiseFlux:
    """Flux vector on [u_0, u_P] given piecewise by exact polynomials.

    ``pieces[p][k]`` lists ascending-degree RealQ coefficients of component
    k on [u_p, u_{p+1}].  Continuity at every interior breakpoint is checked
    exactly at construction.  Evaluation clamps to the working range (with a
    logged warning) and takes the right piece at interior breakpoints, the
    left piece at u_P.
    """

    def __init__(self, basis: FrequencyBasis, breakpoints, pieces, urange=None):
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
        self.pieces = tuple(
            tuple(tuple(_as_realq(basis, c) for c in comp) for comp in piece)
            for piece in pieces
        )
        for piece in self.pieces:
            if len(piece) != ncomp:
                raise ValueError("all pieces must have the same component count")
        self.n = ncomp
        lo_f, hi_f = float(self.breakpoints[0]), float(self.breakpoints[-1])
        if urange is None:
            self.urange = (lo_f, hi_f)
        else:
            lo, hi = float(urange[0]), float(urange[1])
            if not (lo <= hi):
                raise ValueError("working range must satisfy lo <= hi")
            if lo < lo_f or hi > hi_f:
                raise ValueError("breakpoints must cover the working range")
            self.urange = (lo, hi)
        self._check_continuity()
        self._bp_f = np.array([float(b) for b in self.breakpoints])
        deg = max((len(c) for piece in self.pieces for c in piece), default=1)
        deg = max(deg, 1)
        self._coef_f = np.zeros((len(self.pieces), ncomp, deg))
        for p, piece in enumerate(self.pieces):
            for k, comp in enumerate(piece):
                for d, c in enumerate(comp):
                    self._coef_f[p, k, d] = c.value
        # derivative coefficients, ascending degree
        if deg > 1:
            self._dcoef_f = self._coef_f[:, :, 1:] * np.arange(1, deg)
        else:
            self._dcoef_f = np.zeros((len(self.pieces), ncomp, 1))

    @property
    def npieces(self) -> int:
        return len(self.pieces)

    def _check_continuity(self):
        for i in range(1, len(self.breakpoints) - 1):
            u = self.breakpoints[i]
            for k in range(self.n):
                left = _eval_exact(self.pieces[i - 1][k], self.basis, u)
                right = _eval_exact(self.pieces[i][k], self.basis, u)
                if left != right:
                    raise ValueError(
                        f"component {k} jumps at breakpoint {u}: "
                        f"{left.coeffs} != {right.coeffs}"
                    )

    def eval_exact(self, component: int, u: Fraction) -> RealQ:
        """Exact value of one component at a rational point in range."""
        u = Fraction(u)
        if u < self.breakpoints[0] or u > self.breakpoints[-1]:
            raise ValueError("exact evaluation outside breakpoint span")
        p = self._piece_of_exact(u)
        return _eval_exact(self.pieces[p][component], self.basis, u)

    def _piece_of_exact(self, u: Fraction) -> int:
        i = bisect.bisect_right(self.breakpoints, u) - 1
        return min(max(i, 0), self.npieces - 1)

    def _clamp(self, u: np.ndarray) -> np.ndarray:
        lo, hi = self.urange
        # fmin/fmax skip NaN the way the elementwise comparisons below do
        if not u.size or (np.fmin.reduce(u, axis=None) >= lo
                          and np.fmax.reduce(u, axis=None) <= hi):
            return u
        bad = int(np.count_nonzero((u < lo) | (u > hi)))
        if bad:
            log.warning(
                "clamped %d flux argument(s) outside working range [%g, %g]",
                bad, lo, hi,
            )
            u = np.clip(u, lo, hi)
        return u

    def eval(self, u: float) -> np.ndarray:
        """All components at one point, with the tie rules of ``eval_component``."""
        uu = self._clamp(np.asarray([float(u)]))
        return np.array([self.eval_component(k, uu)[0] for k in range(self.n)])

    def eval_component(self, component: int, u: np.ndarray) -> np.ndarray:
        """Vectorized single-component evaluation with the same tie rules.

        Returns a new array, which the caller may overwrite.
        """
        u = self._clamp(np.asarray(u, dtype=float))
        coef = self._coef_f[:, component]
        if self.npieces == 1:
            return _horner(coef[0], u)
        # count of interior breakpoints <= u: ties go right, u_P stays in the last piece
        idx = np.searchsorted(self._bp_f[1:-1], u, side="right")
        # one coefficient per cell: shape (degree,) + u.shape
        return _horner(coef.T.take(idx, axis=1), u)


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


def _dot(xi, piece, start: int = 0) -> list[RealQ]:
    """Exact coefficients of u -> xi.phi(u) on one piece, degree ``start`` up.

    ``xi`` holds one RealQ per flux component; zero factors are skipped.
    This is the one place where a frequency meets the flux coefficients.
    """
    zero = xi[0].basis.zero
    terms = [(x, comp) for x, comp in zip(xi, piece) if not x.is_zero]
    out = []
    for d in range(start, max(len(comp) for comp in piece)):
        acc = zero
        for x, comp in terms:
            if d < len(comp) and not comp[d].is_zero:
                acc = acc + x * comp[d]
        out.append(acc)
    return out


def _xi(kbar, gb: SpectrumGroupBasis, basis: FrequencyBasis) -> list[RealQ]:
    """Coordinates of the group element sum_j kbar_j lambda_j."""
    xi = [basis.zero] * gb.n
    for kj, lam in zip(kbar, gb.frequencies):
        if kj:
            xi = [a + c.scale(kj) for a, c in zip(xi, lam.coords)]
    return xi


def _check_group(flux: PiecewiseFlux, gb: SpectrumGroupBasis):
    if gb.rank < 1:
        raise ValueError("group basis must have positive rank")
    if gb.n != flux.n:
        raise ValueError("group basis dimension disagrees with flux components")


def directional(flux: PiecewiseFlux, kbar, gb: SpectrumGroupBasis) -> PiecewiseFlux:
    """Scalar piecewise polynomial u -> xi.phi(u), xi = sum_j kbar_j lambda_j.

    Coefficients are exact RealQ; breakpoints and working range carry over.
    """
    kbar = tuple(int(k) for k in kbar)
    if len(kbar) != gb.rank:
        raise ValueError(f"kbar must have {gb.rank} entries")
    if gb.n != flux.n:
        raise ValueError("group basis dimension disagrees with flux components")
    xi = _xi(kbar, gb, flux.basis)
    return PiecewiseFlux(flux.basis, flux.breakpoints,
                         [[_dot(xi, piece)] for piece in flux.pieces], flux.urange)


def lip_bound(flux: PiecewiseFlux, lo: float, hi: float) -> tuple[float, ...]:
    """Per-component bound on |d phi_k/du| over [lo, hi], padded by 10%.

    Samples the derivative at piece endpoints and on a 1024-point uniform
    subdivision of each intersected piece; exact for the piecewise-affine
    case up to the deliberate 1.1 safety factor.
    """
    lo, hi = float(lo), float(hi)
    if not lo <= hi:
        raise ValueError("need lo <= hi")
    rlo, rhi = flux.urange
    if lo < rlo - 1e-12 or hi > rhi + 1e-12:
        raise ValueError("[lo, hi] must lie inside the working range")
    bp = flux._bp_f
    out = []
    for k in range(flux.n):
        best = 0.0
        for p in range(flux.npieces):
            a, b = max(bp[p], lo), min(bp[p + 1], hi)
            if a > b:
                continue
            us = np.linspace(a, b, 1024) if a < b else np.array([a])
            vals = np.abs(_horner(flux._dcoef_f[p, k], us))
            best = max(best, float(vals.max()))
        out.append(1.1 * best)
    return tuple(out)


def nondegeneracy_check(flux: PiecewiseFlux, gb: SpectrumGroupBasis) -> NdVerdict:
    """Decide whether any nonzero kbar makes xi.phi affine on some piece."""
    _check_group(flux, gb)
    q = flux.basis.dim
    for p, piece in enumerate(flux.pieces):
        # lambda_j . c_d for d >= 2, one matrix row per (degree, coordinate)
        dots = [_dot(lam.coords, piece, 2) for lam in gb.frequencies]
        rows = []
        for d in range(len(dots[0])):
            for qi in range(q):
                row = [dot[d].coeffs[qi] for dot in dots]
                if any(row):
                    rows.append(row)
        kern = integer_kernel(rows, ncols=gb.rank)
        if kern:
            kbar = kern[0]
            coeffs = _dot(_xi(kbar, gb, flux.basis), piece)
            return NdVerdict(
                nondegenerate=False,
                kbar=kbar,
                piece=p,
                interval=(flux.breakpoints[p], flux.breakpoints[p + 1]),
                tau=coeffs[1].value if len(coeffs) > 1 else 0.0,
                c=coeffs[0].value if coeffs else 0.0,
            )
    return NdVerdict(nondegenerate=True)


def lift_flux(flux: PiecewiseFlux, gb: SpectrumGroupBasis) -> PiecewiseFlux:
    """m-component flux with components (lambda_j . phi), same breakpoints."""
    _check_group(flux, gb)
    pieces = [[_dot(lam.coords, piece) for lam in gb.frequencies] for piece in flux.pieces]
    return PiecewiseFlux(flux.basis, flux.breakpoints, pieces, flux.urange)


def affine_on(scalar_flux: PiecewiseFlux, a: Fraction, b: Fraction):
    """(slope, intercept) RealQ pair if the scalar flux is affine on [a, b].

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
    basis = scalar_flux.basis
    slope = intercept = None
    for p in range(scalar_flux.npieces):
        if bp[p] >= b or bp[p + 1] <= a:
            continue
        coeffs = scalar_flux.pieces[p][0]
        if any(not c.is_zero for c in coeffs[2:]):
            return None
        s = coeffs[1] if len(coeffs) > 1 else basis.zero
        t = coeffs[0] if coeffs else basis.zero
        if slope is None:
            slope, intercept = s, t
        elif s != slope or t != intercept:
            return None
    return slope, intercept
