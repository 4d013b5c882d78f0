"""Dimension lifting: almost-periodic data on R^n as periodic data on T^m.

Writing each data frequency over a group basis (lambda_1..lambda_m) turns
u0(x) into v0(y) with y_j(x) = lambda_j . x: trigonometric coefficients
transport along the integer coordinates and the flux lifts componentwise.
Solving the periodic problem on T^m and sampling back along the orbit
z + y(x) recovers the almost-periodic solution; orbit averages over large
cubes converge to torus integrals because the orbit equidistributes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flux import PiecewiseFlux, lift_flux
from .freqlattice import Frequency, FrequencyBasis, SpectrumGroupBasis, group_basis, member_coords
from .solver import CellField
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


def interp_periodic(f: CellField, y: np.ndarray) -> np.ndarray:
    """Multilinear periodic interpolation of cell averages at points y.

    Cell values sit at centers (i + 1/2) h; y is wrapped mod 1 per axis.
    """
    g = f.grid
    ys = np.atleast_2d(np.asarray(y, dtype=float))
    if ys.shape[-1] != g.m:
        raise ValueError(f"points must have {g.m} coordinates")
    out = np.zeros(ys.shape[0])
    base = []
    frac = []
    for j, nj in enumerate(g.shape):
        t = ys[:, j] * nj - 0.5
        i0 = np.floor(t)
        frac.append(t - i0)
        base.append(i0.astype(np.int64))
    for corner in range(1 << g.m):
        w = np.ones(ys.shape[0])
        idx = []
        for j, nj in enumerate(g.shape):
            if corner >> j & 1:
                w = w * frac[j]
                idx.append((base[j] + 1) % nj)
            else:
                w = w * (1.0 - frac[j])
                idx.append(base[j] % nj)
        out += w * f.values[tuple(idx)]
    return out


def _cube_points(n: int, radius: float, samples_per_unit: float) -> np.ndarray:
    """Midpoint grid on the cube {|x|_inf <= R/2}, same count per axis."""
    if n > 3:
        raise ValueError("cube sampling supports n <= 3")
    per_axis = max(1, int(round(radius * samples_per_unit)))
    axis = (np.arange(per_axis) + 0.5) * (radius / per_axis) - radius / 2.0
    grids = np.meshgrid(*([axis] * n), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


@dataclass(frozen=True, eq=False)
class LiftedProblem:
    """Periodic twin of an almost-periodic Cauchy problem.

    ``flux`` is the lifted m-component flux (None iff m == 0), ``lam`` the
    float shadow of the m x n lift matrix whose rows are the group basis
    frequencies, ``z`` the torus offset selecting one member of the orbit
    family (default 0, the member that interpolates the original data).
    """

    basis: FrequencyBasis
    group: SpectrumGroupBasis
    m: int
    v0: TorusPoly
    flux: PiecewiseFlux | None
    lam: np.ndarray
    z: tuple[float, ...]

    @property
    def n(self) -> int:
        return self.group.n

    @property
    def mean(self) -> float:
        return self.v0.mean

    def lift_points(self, xs, z=None) -> np.ndarray:
        """y = z + Lambda x mod 1 for points x of R^n."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        zz = np.asarray(self.z if z is None else z, dtype=float)
        return np.mod(xs @ self.lam.T + zz, 1.0)

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


def lift_problem(u0: TrigPoly, flux: PiecewiseFlux | None,
                 group: SpectrumGroupBasis | None = None, z=None) -> LiftedProblem:
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
    if gb is None and spectrum:
        gb = group_basis(spectrum)
    if gb is not None and flux is not None and gb.n != flux.n:
        raise ValueError("flux component count must equal the data dimension")
    if gb is None or gb.rank == 0:
        if gb is None:
            gb = group_basis([Frequency(tuple(u0.basis.zero for _ in range(u0.n)))])
        return LiftedProblem(basis=u0.basis, group=gb, m=0,
                             v0=TorusPoly(0, {(): complex(u0.mean)}), flux=None,
                             lam=np.zeros((0, u0.n)), z=())
    m = gb.rank
    terms = {}
    for lamf in spectrum:
        k = member_coords(lamf, gb)
        if k is None:
            raise ValueError(
                f"data frequency {lamf} lies outside the declared group"
            )
        terms[k] = u0.terms[lamf]
    v0 = TorusPoly(m, terms)
    lifted = lift_flux(flux, gb) if flux is not None else None
    lam = np.array([f.floats() for f in gb.frequencies], dtype=float)
    zz = tuple(float(c) for c in (z if z is not None else (0.0,) * m))
    if len(zz) != m:
        raise ValueError(f"offset z must have {m} entries")
    pb = LiftedProblem(basis=u0.basis, group=gb, m=m, v0=v0, flux=lifted,
                       lam=lam, z=zz)
    rng = np.random.default_rng(987654321)
    xs = rng.uniform(-3.0, 3.0, size=(100, u0.n))
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
