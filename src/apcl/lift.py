"""Dimension lifting: almost-periodic data on R^n as periodic data on T^m.

Writing each data frequency over a group basis (lambda_1..lambda_m) turns
u0(x) into v0(y) with y_j(x) = lambda_j . x: trigonometric coefficients
transport along the integer coordinates and the flux lifts componentwise.
Solving the periodic problem on T^m and sampling back along the orbit
z + y(x) recovers the almost-periodic solution; orbit averages over large
cubes converge to torus integrals because the orbit equidistributes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .flux import PiecewiseFlux, _value, lift_flux
from .freqlattice import SpectrumGroupBasis, group_basis, member_coords
from .solver import MAX_CELLS, CellField
from .trigpoly import TorusPoly, TrigPoly

__all__ = [
    "LiftedProblem",
    "CubeMeanReport",
    "lift_problem",
    "cube_seminorm",
    "interp_periodic",
]


@dataclass(frozen=True)
class CubeMeanReport:
    """Cube-average estimates over growing radii; extrapolated = last."""

    radii: tuple[float, ...]
    estimates: tuple[float, ...]

    def __post_init__(self):
        if len(self.radii) != len(self.estimates) or not self.radii:
            raise ValueError("radii and estimates must pair up, nonempty")
        if any(b <= a for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError("radii must be strictly increasing")

    @property
    def extrapolated(self) -> float:
        return self.estimates[-1]


def _wrap(y: np.ndarray) -> np.ndarray:
    """y mod 1 in place, as y - floor(y), which rounds like ``np.mod(y, 1.0)``.

    For y >= 0 both are the exact fractional part; for y < 0 both round
    the exact (y - ceil(y)) + 1; at integers and +-0 both give +0.0, and
    +-inf and NaN give NaN.  floor and a subtraction are cheap ufuncs
    where ``np.mod`` calls fmod per element.
    """
    y -= np.floor(y)
    return y


def interp_periodic(f: CellField, y: np.ndarray) -> np.ndarray:
    """Multilinear periodic interpolation of cell averages at points y.

    Cell values sit at centers (i + 1/2) h; y is wrapped mod 1 per axis.
    Per axis, the low cell index i mod n_j, the high one (that plus one,
    wrapped at n_j, which is (i + 1) mod n_j) and the weights 1 - frac and
    frac are worked out once; each of the 2^m corners then gathers through
    one flat index.  A corner's weight is the product of its per-axis
    weights in axis order, which is the product started from 1.0 less a
    factor that changes no bit, and the corners are summed in order from
    0.0, so the result is bit for bit that of per-corner ``% n_j`` gathers.
    """
    g = f.grid
    ys = np.atleast_2d(np.asarray(y, dtype=float))
    if ys.shape[-1] != g.m:
        raise ValueError(f"points must have {g.m} coordinates")
    # per corner, built up one axis at a time: bit j selects the high side of axis j
    weights, flats = [None], [None]
    for j, nj in enumerate(g.shape):
        frac = ys[:, j] * nj
        frac -= 0.5
        i0 = np.floor(frac)
        frac -= i0
        lo = i0.astype(np.int64)
        lo %= nj
        hi = lo + 1
        hi[hi == nj] = 0
        stride = math.prod(g.shape[j + 1:])
        if stride > 1:
            lo *= stride
            hi *= stride
        weights = [wt if w is None else w * wt for wt in (1.0 - frac, frac) for w in weights]
        flats = [i if fl is None else fl + i for i in (lo, hi) for fl in flats]
    values = f.values.reshape(-1)
    out = 0.0
    for w, fl in zip(weights, flats):
        # term + out is out + term; the first corner is added to 0.0
        term = values.take(fl)
        term *= w
        term += out
        out = term
    return out


def _cube_per_axis(n: int, radius: float, samples_per_unit: float) -> int:
    """Midpoints per axis of the sampling cube, max(1, round(R * spu)).

    Raises ValueError when the cube, that count to the power n, would hold
    more than ``MAX_CELLS`` points.
    """
    try:
        points = radius * samples_per_unit
    except OverflowError:  # an integer count beyond float range
        points = math.inf
    per_axis = max(1, int(round(points))) if points <= MAX_CELLS else None
    if per_axis is None or per_axis ** n > MAX_CELLS:
        raise ValueError(f"the {n}D cube of radius {radius:g} holds more than "
                         f"{MAX_CELLS} sample points")
    return per_axis


def _cube_points(n: int, radius: float, samples_per_unit: float) -> np.ndarray:
    """Midpoint grid on the cube {|x|_inf <= R/2}, same count per axis."""
    if n > 3:
        raise ValueError("cube sampling supports n <= 3")
    per_axis = _cube_per_axis(n, radius, samples_per_unit)
    axis = (np.arange(per_axis) + 0.5) * (radius / per_axis) - radius / 2.0
    grids = np.meshgrid(*([axis] * n), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


@dataclass(frozen=True, eq=False)
class LiftedProblem:
    """Periodic twin of an almost-periodic Cauchy problem.

    ``flux`` is the lifted m-component flux (None iff m == 0) and ``lam``
    the float shadow of the m x n lift matrix whose rows are the group
    basis frequencies.  Sampling takes a torus offset z that selects one
    member of the orbit family; z = 0 interpolates the original data.
    """

    group: SpectrumGroupBasis
    v0: TorusPoly
    flux: PiecewiseFlux | None
    lam: np.ndarray

    @property
    def m(self) -> int:
        return self.group.rank

    @property
    def n(self) -> int:
        return self.group.n

    @property
    def mean(self) -> float:
        return self.v0.mean

    def lift_points(self, xs, z) -> np.ndarray:
        """y = z + Lambda x mod 1 for points x of R^n.

        z is reduced mod 1 first, so a large offset cannot swamp Lambda x.
        """
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        y = xs @ self.lam.T
        y += _wrap(np.array(z, dtype=float))
        return _wrap(y)

    def pullback_sample(self, v: CellField, z, xs) -> np.ndarray:
        """Sample the pulled-back field x -> v(z + Lambda x) by interpolation."""
        return interp_periodic(v, self.lift_points(xs, z))

    def orbit_mean(self, w: CellField, z, radius: float,
                   samples_per_unit: float) -> float:
        """Cube average of the pullback of w over {|x|_inf <= R/2}.

        Uniform midpoint sampling; the summation order is fixed (numpy
        pairwise reduction over one flat array), so results are
        reproducible bit for bit.
        """
        pts = _cube_points(self.n, radius, samples_per_unit)
        return float(np.mean(self.pullback_sample(w, z, pts)))

    def bohr_coefficient(self, w: CellField, kbar, z, radius: float,
                         samples_per_unit: float) -> complex:
        """Orbit average of w(y) e^{-2 pi i kbar.y}: the coefficient probe."""
        kvec = np.asarray(kbar, dtype=float)
        if kvec.shape != (self.m,):
            raise ValueError(f"kbar must have {self.m} entries")
        pts = _cube_points(self.n, radius, samples_per_unit)
        ys = self.lift_points(pts, z)
        vals = interp_periodic(w, ys) * np.exp(-2j * np.pi * (ys @ kvec))
        return complex(np.mean(vals))


@functools.cache
def _round_trip_points(n: int) -> np.ndarray:
    """The 100 fixed pseudo-random points of R^n that ``lift_problem`` checks at.

    Drawn once per dimension n and read-only, since every caller shares them.
    """
    xs = np.random.default_rng(987654321).uniform(-3.0, 3.0, size=(100, n))
    xs.setflags(write=False)
    return xs


def lift_problem(u0: TrigPoly, flux: PiecewiseFlux | None,
                 group: SpectrumGroupBasis | None = None) -> LiftedProblem:
    """Build the periodic twin of (u0, flux).

    The group basis is computed from the data spectrum unless ``group`` is
    given.  A given group must contain the spectrum; it may be larger, which
    enlarges m (e.g. to probe coefficients outside the data's coordinate
    image) or lets several data sets share one torus.  With ``flux`` None
    only the data are lifted.  Verifies the lift round trip
    u0(x) = v0(Lambda x) on 100 fixed pseudo-random points to 1e-10.
    """
    spectrum = list(u0.spectrum())
    gb = group
    if gb is None:
        gb = group_basis(spectrum) if spectrum else SpectrumGroupBasis(u0.basis, u0.n)
    if flux is not None and gb.n != flux.n:
        raise ValueError("flux component count must equal the data dimension")
    if gb.rank == 0:
        return LiftedProblem(group=gb, v0=TorusPoly(0, {(): complex(u0.mean)}), flux=None,
                             lam=np.zeros((0, u0.n)))
    terms = []
    # u0's amplitudes come in spectrum order, so no frequency is hashed
    for lamf, amp in zip(spectrum, u0._amps.tolist()):
        k = member_coords(lamf, gb)
        if k is None:
            raise ValueError(
                f"data frequency {lamf} lies outside the declared group"
            )
        terms.append((k, amp))
    v0 = TorusPoly(gb.rank, terms)
    values = gb.basis.values
    lam = np.array([[_value(c, gb.den, values) for c in comp] for comp in gb.generators],
                   dtype=float)
    pb = LiftedProblem(group=gb, v0=v0, lam=lam,
                       flux=lift_flux(flux, gb) if flux is not None else None)
    xs = _round_trip_points(u0.n)
    lifted_vals = v0.eval(xs @ lam.T)
    direct_vals = u0.eval(xs)
    scale = max(1.0, float(np.max(np.abs(direct_vals))))
    err = float(np.max(np.abs(lifted_vals - direct_vals)))
    if err > 1e-10 * scale:
        raise AssertionError(f"lift round trip off by {err:.3e}")
    return pb


def cube_seminorm(f, n: int, p: int, radii, samples_per_unit: float) -> CubeMeanReport:
    """Mean L^p cube seminorm estimates (R^{-n} int_{C_R} |f|^p)^{1/p}.

    ``f`` maps an (N, n) array of points to N values; estimates use the
    same midpoint rule as orbit averaging, one entry per radius, final
    entry reported as the extrapolated value.
    """
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    radii = tuple(float(r) for r in radii)
    if not radii or any(r <= 0 for r in radii):
        raise ValueError("need positive radii")
    ests = []
    for r in radii:
        pts = _cube_points(n, r, samples_per_unit)
        vals = np.abs(np.asarray(f(pts), dtype=float)) ** p
        ests.append(float(np.mean(vals)) ** (1.0 / p))
    return CubeMeanReport(radii=radii, estimates=tuple(ests))
