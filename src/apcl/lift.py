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

from .flux import PiecewiseFlux, _check_components, lift_flux
from .freqlattice import Frequency, SpectrumGroupBasis, _group, _value, member_coords
from .solver import MAX_CELLS, CellField
from .trigpoly import TorusPoly, TrigPoly

__all__ = [
    "LiftedProblem",
    "lift_problem",
    "interp_periodic",
]


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


# points per block of ``LiftedProblem.orbit_mean``.  A block's temporaries
# (its points, their lift, and per axis and corner the weights and flat
# indices of ``interp_periodic``) take about 150 bytes a point, so 2^13
# points hold about 1.2 MiB, inside a 2 MiB L2 cache.  On a 2-core Xeon
# (numpy 2.4.6), an orbit mean of 2^18 or 2^20 points with n = m = 2 took
# 49-51 ns a point in blocks of 2^13, 48-66 at 2^14, 53-60 at 2^12, where
# the per-block calls show, 79 at 2^10, 60-66 at 2^16 and 118-122 at 2^17;
# the whole cube at once took 94-100 ns.
_BLOCK = 1 << 13


def _cube_per_axis(n: int, radius: float, samples_per_unit: float) -> int:
    """Midpoints per axis of the sampling cube, max(1, round(R * spu)).

    Raises ValueError for n > 3, or when the cube, that count to the power
    n, would hold more than ``MAX_CELLS`` points.
    """
    if n > 3:
        raise ValueError(f"cube sampling supports n <= 3, got {n}-dimensional data")
    try:
        points = radius * samples_per_unit
    except OverflowError:  # an integer count beyond float range
        points = math.inf
    per_axis = max(1, int(round(points))) if points <= MAX_CELLS else None
    if per_axis is None or per_axis ** n > MAX_CELLS:
        raise ValueError(f"the {n}D cube of radius {radius:g} holds more than "
                         f"{MAX_CELLS} sample points")
    return per_axis


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

    def _offset(self, z) -> np.ndarray:
        """The torus offset z reduced mod 1; ValueError unless it has m entries."""
        z = np.array(z, dtype=float)
        if z.shape != (self.m,):
            got = z.shape[0] if z.ndim == 1 else f"shape {z.shape}"
            raise ValueError(f"offset z must have m = {self.m} entries, got {got}")
        return _wrap(z)

    def _lift(self, xs: np.ndarray, z: np.ndarray) -> np.ndarray:
        """z + Lambda x mod 1 for points xs (N, n) and an offset z from ``_offset``."""
        y = xs @ self.lam.T
        y += z
        return _wrap(y)

    def orbit_mean(self, w: CellField, z, radius: float,
                   samples_per_unit: float) -> float:
        """Cube average of the pullback x -> w(z + Lambda x) over {|x|_inf <= R/2}.

        Uniform midpoint sampling, interpolated; the summation order is
        fixed (numpy pairwise reduction over one flat array), so results
        are reproducible bit for bit.  The cube's midpoints are taken in C
        order (the last axis fastest) and made, lifted and interpolated in
        blocks of ``_BLOCK`` consecutive points, each written into one
        array that holds a value per point, so the memory is 8 bytes per
        point plus one block's temporaries.  Each point's value is the same
        as from the whole cube at once, and so is the mean.
        """
        per_axis = _cube_per_axis(self.n, radius, samples_per_unit)
        z = self._offset(z)
        axis = (np.arange(per_axis) + 0.5) * (radius / per_axis) - radius / 2.0
        shape = (per_axis,) * self.n
        values = np.empty(per_axis ** self.n)
        for start in range(0, values.size, _BLOCK):
            block = np.arange(start, min(start + _BLOCK, values.size))
            pts = np.stack([axis[i] for i in np.unravel_index(block, shape)], axis=-1)
            values[start:start + block.size] = interp_periodic(w, self._lift(pts, z))
        return float(np.mean(values))


@functools.cache
def _round_trip_points(n: int) -> np.ndarray:
    """The 100 fixed pseudo-random points of R^n that ``lift_problem`` checks at.

    Drawn once per dimension n and read-only, since every caller shares them.
    """
    xs = np.random.default_rng(987654321).uniform(-3.0, 3.0, size=(100, n))
    xs.setflags(write=False)
    return xs


def _data_coords(lam: Frequency, gb: SpectrumGroupBasis) -> tuple[int, ...]:
    """``member_coords`` of a data frequency, refused with ValueError outside the group."""
    k = member_coords(lam, gb)
    if k is None:
        raise ValueError(f"data frequency {lam} lies outside the declared group")
    return k


def _data_group(u0: TrigPoly, group: SpectrumGroupBasis | None = None):
    """(gb, coords): the group of u0's spectrum, or ``group`` checked to hold it,
    and the coordinates of each of u0's pairs' first keys (``_firsts``) in it.

    -lambda lies in a group iff lambda does, so the first keys generate the
    group of the whole spectrum, and the exact solves that check each key's
    membership are its coordinates: one solve per pair.  Over a given group
    each first key is solved by ``member_coords`` in order, which refuses
    the first key outside the group, as solving every key in spectrum order
    would; the zero key (``_zero``), which lies in every group, is solved
    last, so a group of another basis or dimension refuses it as well.
    """
    firsts = u0._firsts
    if group is None:
        return _group(firsts) if firsts else (SpectrumGroupBasis(u0.basis, u0.n), [])
    coords = [_data_coords(lam, group) for lam in firsts]
    if u0._zero is not None:
        _data_coords(u0._zero, group)
    return group, coords


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), u = 2^-53 the unit roundoff of a float."""
    nu = n * 2.0 ** -53
    return nu / (1.0 - nu)


def _phase_bound(u0: TrigPoly, v0: TorusPoly, lam: np.ndarray) -> float:
    """A float at least ``_round_trip``'s err, from the phases alone; inf on a
    float exception, such as phases beyond float range, which ``_round_trip``
    then refuses.

    At a check point x the two evals form, for each +-pair p, the phases
    t_v = 2 pi (x Lambda^T) . k_p and t_u = 2 pi x . lambda_p; they are
    formed here by the same float operations, so they are the same floats.
    Pair p of v0 is the lift k_p of pair p of u0, with the same coefficient
    a_p: the coordinate map keeps the order of the first keys and the sign
    of their first nonzero entry (the Hermite pivots are positive and the
    rows in echelon form).  So with exact cos and sin of these phases,
    |v0(Lambda x) - u0(x)| <= D = max_x sum_p 2 |a_p| |t_v - t_u|, since
    |Re a (e^{is} - e^{it})| <= |a| |s - t|.  The evals round on top of
    that.  Per side, with u = 2^-53, gamma_n = n u / (1 - n u) (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, ch. 3),
    W = sum_p 2 |a_p| and R + I = sum_p |re a_p| + |im a_p| <= W / sqrt 2:

    - cos and sin are within 4 ulp <= 8u of their exact values, which lie
      in [-1, 1], and so move 2 sum_p (re a_p cos - im a_p sin) by at most
      16u (R + I) <= 12u W;
    - the two P-term dot products, their difference, the x2 (exact) and
      the mean are one sum of 2P + 1 terms, 2P of them rounded products,
      in some order, with or without fused multiply-adds: off by at most
      gamma_{2P+1} (2 (1 + 8u)(R + I) + |mean|) <= gamma_{2P+1} (1.5 W + |mean|).

    The subtraction v0 - u0 rounds once more, so
    err <= (1 + u) (D + 24u W + 2 gamma_{2P+1} (1.5 W + |mean|)).
    Every term of that sum is >= 0, and at most P + 10 roundings lie
    between a term and its share of the float returned here: 1 for
    t_v - t_u, 2 for |a_p| (a hypot within an ulp), 1 per product, P - 1
    for a sum over the pairs, the margin's few operations, gamma's
    division and the last product.  As (1 - u)^(P+10) (1 + gamma_{2P+16})
    >= 1 + u, multiplying by 1 + gamma_{2P+16} rounds the bound up.
    """
    xs = _round_trip_points(u0.n)
    amps = u0._pair_amps
    w = np.abs(amps)
    w *= 2.0
    try:
        with np.errstate(over="raise", invalid="raise"):
            dtheta = (xs @ lam.T) @ v0._pair_rows.T
            dtheta *= 2.0 * np.pi
            theta_u = xs @ u0._pair_rows.T
            theta_u *= 2.0 * np.pi
            dtheta -= theta_u
            d = float((np.abs(dtheta, out=dtheta) @ w).max())
    except FloatingPointError:
        return math.inf
    w_sum = float(w.sum())
    pairs = len(amps)
    margin = 24.0 * 2.0 ** -53 * w_sum
    margin += 2.0 * _gamma(2 * pairs + 1) * (1.5 * w_sum + abs(u0.mean))
    return (d + margin) * (1.0 + _gamma(2 * pairs + 16))


def _round_trip(u0: TrigPoly, v0: TorusPoly, lam: np.ndarray) -> tuple[float, float]:
    """(err, scale): max |v0(Lambda x) - u0(x)| and max(1, max |u0(x)|) over the check points.

    ValueError when a phase lies beyond float range.
    """
    xs = _round_trip_points(u0.n)
    try:
        with np.errstate(over="raise", invalid="raise"):
            lifted_vals = v0.eval(xs @ lam.T)
            direct_vals = u0.eval(xs)
    except FloatingPointError:
        raise ValueError("lift round trip: the phases 2 pi lambda.x at the check points "
                         "lie beyond float range; the largest |Lambda| entry is "
                         f"{float(np.abs(lam).max()):g}") from None
    scale = max(1.0, float(np.abs(direct_vals).max()))
    lifted_vals -= direct_vals
    return float(np.abs(lifted_vals, out=lifted_vals).max()), scale


def lift_problem(u0: TrigPoly, flux: PiecewiseFlux | None,
                 group: SpectrumGroupBasis | None = None) -> LiftedProblem:
    """Build the periodic twin of (u0, flux).

    The group basis is computed from the data spectrum unless ``group`` is
    given, and each +-pair's first key is solved once in it
    (``_data_group``).  A given group must contain the spectrum, one of
    rank 0 too; it may be larger, which enlarges m (e.g. to probe
    coefficients outside the data's coordinate image) or lets several data
    sets share one torus.  With ``flux`` None only the data are lifted.

    v0 is built from u0's pairs as they are, with no second normalisation
    (``TorusPoly._from_pairs`` says why): the first keys' coordinates with
    ``_pair_amps``, and the mean's coefficient ``terms[_zero]``.

    Verifies the lift round trip u0(x) = v0(Lambda x) on 100 fixed
    pseudo-random points to 1e-10, and refuses with ValueError beyond
    that: the exact lift is right, but the floats of a badly scaled Lambda
    (group rows far longer than the data frequencies) do not reproduce the
    data.  The check is a bound on the error from the phases first
    (``_phase_bound``); only a lift it leaves above 1e-10 is sampled, by
    ``_round_trip``, which makes every refusal, with the same text.
    """
    if flux is not None:
        _check_components(flux, u0.n if group is None else group.n)
    # before the rank-0 shortcut, which would drop data outside a given group
    gb, coords = _data_group(u0, group)
    if gb.rank == 0:
        return LiftedProblem(group=gb, v0=TorusPoly(0, {(): complex(u0.mean)}), flux=None,
                             lam=np.zeros((0, u0.n)))
    mean = None if u0._zero is None else u0.terms[u0._zero]
    v0 = TorusPoly._from_pairs(gb.rank, zip(coords, u0._pair_amps.tolist()), mean)
    values = gb.basis.values
    lam = np.array([[_value(c, gb.den, values) for c in comp] for comp in gb.generators],
                   dtype=float)
    pb = LiftedProblem(group=gb, v0=v0, lam=lam,
                       flux=lift_flux(flux, gb) if flux is not None else None)
    # the bound is at least err, and scale >= 1: where it holds the sampled check would too
    if _phase_bound(u0, v0, lam) > 1e-10:
        err, scale = _round_trip(u0, v0, lam)
        if err > 1e-10 * scale:
            raise ValueError(f"lift round trip off by {err:.3e}, beyond 1e-10 x {scale:g}: "
                             f"the group basis is badly scaled, its largest |Lambda| "
                             f"entry is {float(np.abs(lam).max()):g}")
    return pb
