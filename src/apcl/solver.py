"""Monotone first-order finite volumes on the periodic torus, m in {1,2,3}.

A time step is m one-axis sweeps in turn (Godunov, or Lie, splitting).
Sweep j updates the field along axis j alone, with the Rusanov numerical
flux F_j(a, b) = (phi_j(a) + phi_j(b))/2 - (alpha_j/2)(b - a) of the
flux's component j.  alpha_j is one global viscosity per sweep: the max
of |phi_j'| over the joint range of the fields the sweep reads, with no
safety factor, which ``lip_bound`` takes in closed form from the piece
ends and the critical points of phi_j' between them.  In 1D a step is one
sweep.  For a linear flux at a Courant number of 1 a sweep is exact
upwind, a shift by one cell.  ``advance`` is the one place that chooses
dt and the alphas, 2m - 1 maxima a step on a flux that is not affine on
the range: dt from the alphas of the fields' range at the start of the
step, then each sweep with the alpha of what it reads, the start's for
sweep 0; on a flux that is, none after the first step (the range rule
below).  ``evolve`` is the one time loop that calls it: ``run`` and the
harness's two-field contraction both step through ``evolve``.

A sweep is monotone when every new value is a nondecreasing function of
the old ones.  Its weight on u_i is 1 - C_j, C_j = alpha_j dt/h_j the
sweep's Courant number, as the phi_j(u_i) of the two faces of cell i
cancel; its weight on u_{i +- e_j} is (dt/2h_j)(alpha_j -+ phi_j'), which
is >= 0 as alpha_j >= |phi_j'|.  So the cap C_j <= 1 is all that
monotonicity needs (Crandall & Majda, Math. Comp. 34, 1980), and a sweep
is refused beyond it: above 1 the weight on u_i is negative.  A monotone
sweep is conservative, max-principle stable, L1-contractive, and
cell-entropy dissipative for the Kruzhkov-type numerical entropy flux
Q_j(a, b; k) = F_j(a max k, b max k) - F_j(a min k, b min k); a step, as
their composition, keeps the first three, and ``entropy_residual`` checks
the fourth sweep by sweep.  The composition of monotone one-axis sweeps
converges to the Kruzhkov entropy solution (Crandall & Majda, "The method
of fractional steps for conservation laws", Numer. Math. 34, 1980).

The step's Courant number is max_j C_j, so dt = cfl / max_j alpha_j/h_j.
An unsplit update, which adds every axis's flux difference to one
divergence, is monotone only while sum_j C_j <= 1, so it takes
sum_j C_j / max_j C_j times the steps, up to m.  A sweep's range
lies inside the range it reads, up to rounding, so each later alpha_j is
at most the start's and each sweep's C_j at most the cfl.

Range rule: a field's range ``vmin``/``vmax`` is exact, reduced on first
read.  Where every component is affine, phi_j = c_0 + c_1 u, on one piece
that holds the fields' joint range [lo, hi] with room to spare, alpha_j is
|c_1| wherever the range lies in that piece, and the max principle keeps
every later value in [lo, hi] up to rounding.  So the step that finds
this reduces the range once and hands the stepped fields the bound
[lo - delta, hi + delta] (``CellField.kept``, a ``_Bound``) with what a
later step on their grid at their cfl would find again: the alphas,
dt_cfl, the piece's Horner plans, each Courant number alpha_j dt_cfl/h_j,
and each alpha_j and scale 0.5 dt_cfl N_j as a 0-d array, which a ufunc
reads as the float it holds.  A sweep handed the bound's own alpha and
dt reads all three, and still tests the Courant number against the cap.
A step that carries the bound, strictly inside the piece, would pass the
range check and pick that piece as the step that made it did, so it
reads, checks and chooses nothing and runs the same ufuncs on the same
operands: every value, alpha and dt keeps its bits.  ``run`` asserts at
each record time that the exact range lies in the bound (exit 5).

Drift bound: let s = |c_1| = alpha_j, r = |c_0/c_1|, M the largest |u|
a sweep reads and eps = 2^-53.  Each evaluated phi is off by at most
eps s (2M + r), each face (at most s (4M + 2r)) by eps s (14M + 6r), each
face difference by eps s (36M + 16r), and the update, scaled by
dt/2h_j <= (1 + 4 eps)/(2s) as the Courant number of ``advance``'s dt is
at most 1 + 4 eps, by eps (26M + 12r); the exact update overshoots the
range it reads by at most (C_j - 1) 2M <= 8 eps M and the final
subtraction rounds by eps M.  So one affine sweep leaves the range it
reads by under 35 eps (M + r) <= 2^-47 (M + r) (``_DRIFT``), to first
order.  A run takes at most ``MAX_STEPS`` steps of m sweeps, so
delta = 2 MAX_STEPS m 2^-47 (max(|lo|, |hi|) + r + 2^-400), r the largest
over the components of nonzero slope; the factor 2 covers M's growth
past max(|lo|, |hi|) and the second-order terms, and 2^-400 the
subnormal rounding, as ``_LIMIT`` = 2^400 bounds |phi_j| over the bound
and 1/s.  A range within delta of a breakpoint or of the span's end, a
flux with no affine piece there and a range beyond ``_LIMIT``'s rule take
the reduced path every step; for a flux with no affine piece at all,
such as Burgers, the test is one cached read.

Scratch rule: a sweep allocates no full-grid array but its one flux
evaluation and, in it, the new values.  The Horner result phi_j takes
the jump, then the flux difference, then the new values in place, while
it is still in cache.  The faces go into the grid's face buffer, which
the grid builds once (``TorusGrid._face``), so the step's memory does not
churn the C heap, and a sweep writes its grid's face buffer: two threads
must not step fields of one ``TorusGrid`` at once.  The grid keeps that
buffer's views one cell apart along each axis too (``_face_offsets``), and
a sweep takes those of its other two arrays once (``_offsets``): on 1D
grids of 128-2048 cells a ufunc call on views made in advance costs about
half as much as one that slices its operands first.  The new values are
phi_j's array, so the new field keeps phi_j's views (``CellField._swept``)
and the next sweep along the same axis reads them: in 1D a sweep slices
phi_j alone; in n-D the next sweep runs along another axis and slices
both.  No view is written once its field is built.  ``entropy_residual``
holds two faces at once, so it uses face buffers of its own.

Layout rule: every full-grid array of at least 64 KiB that a sweep
writes starts on a 64-byte cache line: each Horner result, and so the new
values, and the grid's face buffer.  ``flux._empty`` allocates them.  The
passes over the Horner result write from its first element, but the flux
difference writes from flat element prod(shape[j+1:]) on, so along the
last axis those stores run one element off the line.  A fresh numpy
array of this size starts where malloc or mmap put it, typically 16
bytes past a line, and with AVX-512 loops every vector store into it then
splits a line.  On a 2-core Xeon (numpy 2.4.6, AVX512_SPR) a two-input
multiply into a 65536-cell output took 22-33 us aligned against 46-83 us,
and ``lifted_nd`` run_s fell by x0.86-0.88 (``BENCH_11.json``).  The gain
depends on the hardware: with 32-byte vectors only every other store
splits a line, so it is smaller without AVX-512.  Arrays under 64 KiB
(8192 cells), every 1D grid the shipped configs and the bench use among
them, are plain numpy results, the Horner product ``x * c`` too: there
the saving is a few us at most, against 1-2 us to find the line.  The
operations, operands and their order are the same either way, so no bit
depends on the layout.
"""

from __future__ import annotations

import bisect
import cmath
import math
import os
import struct
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .flux import (
    PiecewiseFlux,
    _check_components,
    _check_range,
    _constant,
    _empty,
    affine_on,
    directional,
    lip_bound,
)
from .freqlattice import SpectrumGroupBasis, _value
from .trigpoly import TorusPoly

__all__ = [
    "TorusGrid",
    "CellField",
    "SolverConfig",
    "DEFAULT_CFL",
    "check_cfl",
    "StepLog",
    "Trajectory",
    "CflError",
    "CounterexampleError",
    "TravelingWave",
    "exact_cell_average",
    "cfl_dt",
    "step",
    "advance",
    "MAX_STEPS",
    "MAX_CELLS",
    "evolve",
    "run",
    "l1_distance",
    "entropy_residual",
    "fourier_coeff",
    "exact_counterexample",
    "write_field",
    "read_field",
]


# the largest Courant number alpha_j dt/h_j a sweep may take: the bound
# of monotonicity
MAX_CFL = 1.0

# the Courant number a config that names none runs at, 10% below the cap
DEFAULT_CFL = 0.9

# the largest Courant number ``step`` takes: the cap up to rounding, as
# dt = cfl / max_j alpha_j/h_j at cfl 1 gives a Courant number an ulp or
# two from 1; a NaN one (0 * inf) fails the test against it too
_COURANT_CAP = MAX_CFL * (1.0 + 1e-12)

# the most time steps one run, or one contraction pair, may take; the
# shipped configs and the bench workloads take at most a few thousand
MAX_STEPS = 1_000_000

# the most cells one grid, or points one orbit-mean cube, may hold; the
# shipped configs and the bench workloads use at most 262144
MAX_CELLS = 2 ** 24


def check_cfl(cfl: float) -> float:
    """``cfl``, refused with ValueError unless it lies in (0, 1]."""
    if not 0.0 < cfl <= MAX_CFL:
        raise ValueError(f"cfl must lie in (0, 1], got {cfl!r}")
    return cfl


class CflError(RuntimeError):
    """Refusal to take a time step that violates the CFL cap."""


class CounterexampleError(RuntimeError):
    """Refusal to build a traveling wave on a non-affine flux."""


@dataclass(frozen=True)
class TorusGrid:
    """Uniform cell grid on the m-torus, cells of size h_j = 1/N_j."""

    shape: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        if not 1 <= len(self.shape) <= 3:
            raise ValueError("grid dimension must be 1, 2 or 3")
        if any(n < 2 for n in self.shape):
            raise ValueError("need at least two cells per axis")
        if math.prod(self.shape) > MAX_CELLS:
            raise ValueError(f"a grid may hold at most {MAX_CELLS} cells, "
                             f"got {math.prod(self.shape)}")

    @cached_property
    def m(self) -> int:
        return len(self.shape)

    @cached_property
    def h(self) -> tuple[float, ...]:
        return tuple(1.0 / n for n in self.shape)

    @cached_property
    def _face(self) -> np.ndarray:
        """The face buffer every sweep on this grid writes, built on its first step."""
        return _empty(np.empty(self.shape))

    @cached_property
    def _face_offsets(self) -> tuple:
        """``_offsets`` of the face buffer along each axis, kept so that no sweep slices it."""
        return tuple(_offsets(self._face, j) for j in range(self.m))

    @property
    def cell_volume(self) -> float:
        v = 1.0
        for n in self.shape:
            v /= n
        return v

    def holds(self, k) -> bool:
        """2|k_j| < N_j on every axis j: on N_j cells k_j and k_j + N_j read one grid mode."""
        return all(2 * abs(kj) < n for kj, n in zip(k, self.shape))

    def centers(self, axis: int) -> np.ndarray:
        n = self.shape[axis]
        return (np.arange(n) + 0.5) / n


class CellField:
    """Cell-average values on a TorusGrid; treated as immutable.

    ``vmin`` and ``vmax`` are the values' exact range, reduced on first
    read and kept.  ``lip_bound``, ``eval_component``, ``_observe`` and the
    range rule trust them, so ``values`` must not be written after
    construction: a sweep into a ping-pong buffer would break that silently.
    ``kept`` is None, or the ``_Bound`` that ``advance`` hands the fields
    it stepped on a flux affine on their range, which a step reads in
    place of the range (the module docstring's range rule).  A sweep wraps
    its new values through ``CellField._swept``, which skips the
    conversion and the shape check: those values are the sweep's own new
    array, a float one of the grid's shape, C-contiguous like the field it
    swept.  Such a field keeps the ``_offsets`` views of its values along
    the sweep's axis (``_views``, along ``_axis``; both None for a field
    the constructor built), and a sweep along that axis reads them in
    place of slicing ``values`` again; they must not be written either.
    """

    def __init__(self, grid: TorusGrid, values):
        values = np.ascontiguousarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} != grid {grid.shape}")
        self.grid = grid
        self.values = values
        self.kept = None
        self._views = self._axis = None

    @classmethod
    def _swept(cls, grid: TorusGrid, views: tuple, axis: int, reduce: bool) -> CellField:
        """The new field of a sweep along ``axis``, its range reduced now if ``reduce``.

        ``views`` is the ``_offsets`` tuple of the new values along ``axis``,
        kept for the next sweep along that axis.  A sweep that carries no
        bound passes True: its range is read at the next step, and reducing
        it here costs about 1 us less than a first read through the cached
        property.
        """
        field = object.__new__(cls)
        field.grid = grid
        field.values = views[0]
        field.kept = None
        field._views = views
        field._axis = axis
        if reduce:
            field._reduce()
        return field

    # the first read of a range not yet reduced; a ``__getattr__`` fallback
    # would slow every attribute load of a field, about 50 ns (Python 3.11)
    vmin = cached_property(lambda self: self._reduce()[0])
    vmax = cached_property(lambda self: self._reduce()[1])

    def _reduce(self) -> tuple[float, float]:
        # the ufunc reductions ndarray.min/max call, NaN propagating alike
        self.vmin = float(np.minimum.reduce(self.values, None))
        self.vmax = float(np.maximum.reduce(self.values, None))
        return self.vmin, self.vmax

    @property
    def size(self) -> int:
        """The cell count."""
        return self.values.size

    def mean(self) -> float:
        return float(self.values.mean())


@dataclass(frozen=True)
class SolverConfig:
    t_end: float
    cfl: float = DEFAULT_CFL
    record_times: tuple[float, ...] = ()

    def __post_init__(self):
        check_cfl(self.cfl)
        if not 0.0 < self.t_end < math.inf:
            raise ValueError("t_end must be positive and finite")
        rt = tuple(float(t) for t in self.record_times)
        for t in rt:
            if not 0.0 <= t <= self.t_end + 1e-12:
                raise ValueError(f"record time {t} outside [0, t_end]")
        object.__setattr__(self, "record_times", tuple(min(t, self.t_end) for t in rt))


class StepLog:
    """How one run, or one contraction pair, stepped: ``add`` each ``advance``.

    ``record`` gives the step count, the least and largest dt, and the peak
    Courant number max_j alpha_j dt/h_j, with the alphas of the step's start.
    A step's Courant number is cfl * (dt / dt_cfl), as
    dt_cfl = cfl / max_j alpha_j/h_j; dt <= dt_cfl,
    so the quotient rounds to at most 1 and the peak to at most ``cfl``.
    """

    __slots__ = ("cfl", "steps", "dt_min", "dt_max", "ratio_max")

    def __init__(self, cfl: float):
        self.cfl = cfl
        self.steps = 0
        self.dt_min = math.inf
        self.dt_max = 0.0
        self.ratio_max = 0.0

    def add(self, dt_cfl: float, dt: float):
        self.steps += 1
        if dt < self.dt_min:
            self.dt_min = dt
        if dt > self.dt_max:
            self.dt_max = dt
        # 0 when every alpha is 0 and dt_cfl infinite
        ratio = dt / dt_cfl
        if ratio > self.ratio_max:
            self.ratio_max = ratio

    def record(self) -> dict:
        """steps, dt_min, dt_max and courant_max; the last three null without a step."""
        if not self.steps:
            return {"steps": 0, "dt_min": None, "dt_max": None, "courant_max": None}
        return {"steps": self.steps, "dt_min": self.dt_min, "dt_max": self.dt_max,
                "courant_max": self.cfl * self.ratio_max}


@dataclass
class Trajectory:
    fields: list[CellField]
    rows: list[dict]
    stepping: dict


def _times_per_axis(w: np.ndarray, vecs) -> np.ndarray:
    """w times vecs[j] broadcast along axis j, for each axis j in turn."""
    for axis, vec in enumerate(vecs):
        shape = [1] * len(vecs)
        shape[axis] = vec.size
        w = w * vec.reshape(shape)
    return w


def exact_cell_average(p: TorusPoly, g: TorusGrid) -> CellField:
    """Cell averages of a torus polynomial, exact per term.

    The average of e^{2 pi i k.y} over a cell factorizes per axis into
    sinc(k_j h_j) times the value at the cell midpoint, so each term is a
    closed-form outer product.  The terms at k and -k are conjugate, so
    each +-pair adds the real part r of its first key's product twice,
    the pairs in spectrum order, and the mean last: the sum is real by
    construction.  The field mean equals the zero coefficient (aliased
    modes are killed by the sinc factor).
    """
    if p.m != g.m:
        raise ValueError(f"a {p.m}-dimensional polynomial on a {g.m}-dimensional grid")
    acc = np.zeros(g.shape)
    for k, amp in zip(p._pair_rows, p._pair_amps):
        vecs = [np.sinc(kj * hj) * np.exp(2j * np.pi * kj * (np.arange(nj) + 0.5) * hj)
                for kj, nj, hj in zip(k, g.shape, g.h)]
        r = _times_per_axis(amp, vecs).real
        # r added twice, not 2 r once: once for k and once for -k, as a sum
        # over every key adds them, so that every value keeps its bits
        acc += r
        acc += r
    acc += p.mean
    return CellField(g, acc)


def cfl_dt(f: CellField, cfl: float, alphas: tuple[float, ...]) -> float:
    """Largest admissible dt for the viscosities ``alphas``: cfl / max_j alpha_j/h_j.

    Only the grid of ``f`` is read.  With all alpha_j = 0 (a flux constant
    on the range) every dt is admissible, and the result is infinite.
    """
    check_cfl(cfl)
    rate = 0.0
    for a, h in zip(alphas, f.grid.h):
        if a / h > rate:
            rate = a / h
    if rate == 0.0:
        return math.inf
    return cfl / rate


def _offsets(x: np.ndarray, j: int) -> tuple:
    """(x, up, down, first, last): ``x``, its flat views one cell apart along axis j, its ends.

    up[i] is the cell one step up axis j from down[i], s = prod(shape[j+1:])
    elements further on in the C-contiguous ``x``.  A neighbour operation
    is one ufunc call on the views, then the same operation on x[first]
    and x[last], the ends of axis j, for the pairs that wrap: two scalars
    in 1D, far cheaper than a ufunc call, and two slabs in n-D, which redo
    the pairs that came out wrong on the flat views.
    """
    if x.ndim == 1:
        return x, x[1:], x[:-1], 0, -1
    s = math.prod(x.shape[j + 1:])
    xf = x.reshape(-1)
    lead = (slice(None),) * j
    return x, xf[s:], xf[:-s], lead + (slice(None, 1),), lead + (slice(-1, None),)


def _faces(u: tuple, phi: tuple, alpha, face: tuple) -> np.ndarray:
    """Twice the Rusanov flux on face i+1/2 of every cell along one axis, in ``face``.

    The face is (phi_i + phi_{i+1}) - alpha (u_{i+1} - u_i), phi the values
    of the flux's component at u, all three as ``_offsets`` gives them;
    ``phi`` is left holding alpha times the jump, for the caller to reuse.
    """
    u, u_up, u_down, first, last = u
    x, x_up, x_down, _, _ = phi
    face, _, face_down, _, _ = face
    np.add(x_up, x_down, face_down)
    face[last] = x[first] + x[last]
    np.subtract(u_up, u_down, x_down)
    x[last] = u[first] - u[last]
    x *= alpha
    face -= x
    return face


def _scale(dt: float, n: int) -> float:
    """The flux difference's factor 0.5 * dt * n on n cells: dt/h for doubled faces."""
    return 0.5 * dt * n


def _flux_difference(face: tuple, scale, out: tuple) -> np.ndarray:
    """``_scale``'s scale * (face_{i+1/2} - face_{i-1/2}) into ``out``, both from ``_offsets``."""
    face, face_up, face_down, first, last = face
    out, out_up, _, _, _ = out
    np.subtract(face_up, face_down, out_up)
    out[first] = face[first] - face[last]
    out *= scale
    return out


def step(f: CellField, flux: PiecewiseFlux, dt: float, alpha: float,
         axis: int = 0) -> CellField:
    """One sweep: the conservative update of ``f`` along ``axis`` alone, viscosity ``alpha``.

    ``advance`` composes one sweep per axis into a time step, each with
    the ``lip_bound`` of component ``axis`` over what it reads; in 1D a
    sweep is the step.  Refuses a Courant number alpha dt/h_axis above 1.
    """
    g, kept = f.grid, f.kept
    if kept is not None and kept.flux is flux and g is kept.grid \
            and alpha is kept.alphas[axis] and dt is kept.dt_cfl:
        # the bound's own alpha and dt (by identity, as -0.0 == 0.0) on its
        # grid, whose component count the sweep that first carried it checked:
        # the bound's Courant number and the 0-d twins of alpha and the scale
        courant, alpha, scale = kept.courants[axis], kept.rates[axis], kept.scales[axis]
    else:
        if flux.n != g.m:
            _check_components(flux, g.m, grid=True)
        if kept is not None and kept.flux is not flux:
            kept = None
        courant, scale = alpha * dt / g.h[axis], _scale(dt, g.shape[axis])
    if not courant <= _COURANT_CAP:
        raise CflError(
            f"CFL violation: alpha_j dt/h_j = {courant:.6g} > 1 on axis {axis} "
            f"(dt={dt:.6g}, alpha={alpha:.6g}, shape={g.shape})"
        )
    u = f._views if f._axis == axis else _offsets(f.values, axis)
    phi = _offsets(flux.eval_component(axis, f), axis)
    face = g._face_offsets[axis]
    _faces(u, phi, alpha, face)
    d = _flux_difference(face, scale, phi)
    np.subtract(u[0], d, d)
    return CellField._swept(g, phi, axis, kept is None)


def _joint_range(fields) -> tuple[float, float]:
    """The least vmin and the largest vmax of ``fields``."""
    # plain loops: in 1D this Python overhead is a visible part of a step
    lo, hi = fields[0].vmin, fields[0].vmax
    for f in fields:
        if f.vmin < lo:
            lo = f.vmin
        if f.vmax > hi:
            hi = f.vmax
    return lo, hi


# the drift of one affine sweep past the range it reads, per unit of
# max|u| + |c_0/c_1|, and the limit on |phi_j| and on 1/|c_1| that keeps
# its rounding free of overflow and its subnormal rounding under 2^-400
# of that unit (the module docstring's drift bound)
_DRIFT = 2.0 ** -47
_LIMIT = 2.0 ** 400


_Bound = namedtuple("_Bound", "flux lo hi alphas plans rates grid cfl dt_cfl scales courants")


def _carry(flux: PiecewiseFlux, lo: float, hi: float, field: CellField, cfl: float):
    """The range rule's bound of fields of joint range [lo, hi] on ``field``'s grid at ``cfl``.

    [lo - delta, hi + delta], delta the drift margin, when every component
    has degree <= 1 on the piece p that holds it strictly inside its ends;
    None otherwise, for a NaN range, and for one outside ``_LIMIT``'s rule.
    plans[j] is component j's Horner plan on p; rates[j], alpha_j, and
    scales[j], axis j's 0.5 dt_cfl N_j, are read-only 0-d arrays;
    courants[j] is axis j's Courant number alpha_j dt_cfl/h_j, computed as
    ``step`` computes it.
    """
    if not lo <= hi:
        return None
    p = bisect.bisect_right(flux._inner, lo)
    affine = flux._affine_pieces.get(p)
    if affine is None:
        return None
    slopes = [abs(c1) for _, c1 in affine if c1]
    if not slopes or min(slopes) * _LIMIT < 1.0:
        return None
    ratio = max(abs(c0 / c1) for c0, c1 in affine if c1)
    delta = 2 * MAX_STEPS * flux.n * _DRIFT * (max(-lo, hi) + ratio + 1.0 / _LIMIT)
    lo_k, hi_k = lo - delta, hi + delta
    if not (flux._bp_f[p] < lo_k and hi_k < flux._bp_f[p + 1]):
        return None
    if any(abs(c0) + abs(c1) * max(-lo_k, hi_k) > _LIMIT for c0, c1 in affine):
        return None
    alphas = tuple(lip_bound(flux, j, lo, hi) for j in range(flux.n))
    dt_cfl = cfl_dt(field, cfl, alphas)
    g = field.grid
    return _Bound(flux, lo_k, hi_k, alphas, tuple(plans[p] for plans, _ in flux._plans),
                  tuple(_constant(np.array(a)) for a in alphas), g, cfl, dt_cfl,
                  tuple(_constant(np.array(_scale(dt_cfl, n))) for n in g.shape),
                  tuple(a * dt_cfl / h for a, h in zip(alphas, g.h)))


def advance(flux: PiecewiseFlux, cfl: float, t_remaining: float,
            *fields: CellField) -> tuple[float, float, list[CellField]]:
    """One monotone step of every field with one operator; returns (dt_cfl, dt, stepped fields).

    Every alpha_j over the joint range of the fields, the CFL step dt_cfl
    from them and dt = min(dt_cfl, ``t_remaining``); then one sweep of
    every field along each axis j in turn, with alpha_j over the joint
    range of what it reads: the start's for axis 0.  2m - 1 maxima a step,
    unless every field carries one bound of this flux, grid and cfl
    (``CellField.kept``) or the flux is affine on their range, so that
    this step starts one: then the bound gives every alpha and dt_cfl, and
    the stepped fields carry it (the module docstring's range rule).
    """
    kept = None
    # a flux with no affine piece, such as Burgers, pays this one read
    if flux._affine_pieces:
        kept = fields[0].kept
        for f in fields:
            if f.kept is not kept:
                kept = None
        if kept is None or kept.flux is not flux or kept.cfl != cfl \
                or kept.grid is not fields[0].grid:
            kept = _carry(flux, *_joint_range(fields), fields[0], cfl)
    if kept is None:
        lo, hi = _joint_range(fields)
    if flux.n == 1:
        # one sweep, with no list of alphas and no loop over the axes
        if kept is None:
            alpha = lip_bound(flux, 0, lo, hi)
            dt_cfl = cfl_dt(fields[0], cfl, (alpha,))
        else:
            alpha, dt_cfl = kept.alphas[0], kept.dt_cfl
        dt = t_remaining if t_remaining < dt_cfl else dt_cfl
        stepped = []
        for f in fields:
            f = step(f, flux, dt, alpha, 0)
            if kept is not None:
                f.kept = kept
            stepped.append(f)
        return dt_cfl, dt, stepped
    if kept is None:
        alphas = []  # a plain loop: a comprehension's frame (Python <= 3.11) costs 0.3 us
        for j in range(flux.n):
            alphas.append(lip_bound(flux, j, lo, hi))
    else:
        alphas = kept.alphas
    dt_cfl = cfl_dt(fields[0], cfl, alphas) if kept is None else kept.dt_cfl
    dt = t_remaining if t_remaining < dt_cfl else dt_cfl
    for axis, alpha in enumerate(alphas):
        if axis and kept is None:
            alpha = lip_bound(flux, axis, *_joint_range(fields))
        stepped = []
        for f in fields:
            f = step(f, flux, dt, alpha, axis)
            f.kept = kept
            stepped.append(f)
        fields = stepped
    return dt_cfl, dt, fields


def _l1(f: CellField, other) -> float:
    """prod_j h_j * sum_cells |f - other|, ``other`` an array on f's grid or a scalar."""
    d = f.values - other
    # the pairwise sum np.sum takes, without its Python wrapper
    return f.grid.cell_volume * float(np.add.reduce(np.absolute(d, d), None))


def l1_distance(f: CellField, g: CellField) -> float:
    """prod_j h_j * sum_cells |f - g|."""
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    return _l1(f, g.values)


def entropy_residual(before: CellField, after: CellField, flux: PiecewiseFlux,
                     dt: float, k: float, alpha: float, axis: int = 0) -> float:
    """Max cell entropy-inequality violation of one sweep for threshold k.

    ``after`` is ``before`` swept along ``axis`` with ``alpha``.  Uses the
    numerical entropy flux Q_j(a,b;k) = F_j(a max k, b max k) - F_j(a min k,
    b min k) of that sweep; nonpositive (up to roundoff) for any monotone
    sweep.
    """
    g = before.grid
    _check_components(flux, g.m, grid=True)
    u, u2 = before.values, after.values
    k = float(k)
    acc = np.abs(u2 - k) - np.abs(u - k)
    umax = np.maximum(u, k)
    umin = np.minimum(u, k)
    phi_max = _offsets(flux.eval_component(axis, umax), axis)
    phi_min = _offsets(flux.eval_component(axis, umin), axis)
    # two faces at once, so face buffers of its own rather than the grid's
    qface = _faces(_offsets(umax, axis), phi_max, alpha, _offsets(_empty(u), axis))
    qface -= _faces(_offsets(umin, axis), phi_min, alpha, _offsets(_empty(u), axis))
    acc += _flux_difference(_offsets(qface, axis), _scale(dt, g.shape[axis]), phi_max)
    return float(acc.max())


def fourier_coeff(f: CellField, kbar) -> complex:
    """Midpoint quadrature of the torus Fourier coefficient at kbar.

    On N_j cells along axis j, k_j and k_j + N_j read the same grid mode,
    so the coefficient stands for kbar alone only when the grid holds
    kbar (``TorusGrid.holds``); the harness refuses any other probe.
    """
    g = f.grid
    kbar = tuple(int(c) for c in kbar)
    if len(kbar) != g.m:
        raise ValueError("kbar length must match grid dimension")
    vecs = [np.exp(-2j * np.pi * kj * g.centers(axis)) for axis, kj in enumerate(kbar)]
    w = _times_per_axis(f.values.astype(complex), vecs)
    return complex(w.sum() * g.cell_volume)


def _observe(t: float, v: CellField, c: float) -> dict:
    """A record row of ``v`` at t: its exact range, and that range inside any carried bound."""
    kept = v.kept
    if kept is not None and not kept.lo <= v.vmin <= v.vmax <= kept.hi:
        raise AssertionError(f"the range [{v.vmin!r}, {v.vmax!r}] at t={t:g} left the carried "
                             f"bound [{kept.lo!r}, {kept.hi!r}]")
    return {
        "t": t,
        "l1_to_mean": _l1(v, c),
        "min": v.vmin,
        "max": v.vmax,
        "mass": v.grid.cell_volume * float(np.add.reduce(v.values, None)),
    }


def evolve(flux: PiecewiseFlux, cfl: float, grid: TorusGrid, data, times, cap=math.inf,
           every_step: bool = True):
    """Step the exact cell averages of torus polynomials ``data`` jointly; yield (t, fields, log).

    A datum with a mode that the grid does not hold (``TorusGrid.holds``),
    whose cell averages would read another mode, is refused before the
    first yield, and so is a joint range outside the flux's working range,
    as observing it may overflow.  Each step is one ``advance``
    of every field, added to ``log``, one ``StepLog``.  Yields at each of
    ``times`` (ascending from 0.0), where t lands exactly, and, if
    ``every_step``, after each step too; a time reached within 1e-14 takes
    no step.  dt passes neither the next time nor ``cap``.  A finite
    ``times[-1]`` is refused with ``CflError`` once the steps taken plus
    ceil((times[-1] - t) / dt_cfl) would exceed ``MAX_STEPS``.
    """
    fields = [exact_cell_average(p, grid) for p in data]
    for p in data:
        for k in p._firsts:
            if not grid.holds(k):
                raise ValueError(f"data mode {list(k)} needs 2|k_j| < N_j on the grid "
                                 f"{list(grid.shape)}")
    _check_range(flux, *_joint_range(fields))
    log, t = StepLog(cfl), 0.0
    end = times[-1]
    budgeted = end < math.inf
    for target in times:
        near = target - 1e-14
        while t < near:
            rest = target - t
            dt_cfl, dt, fields = advance(flux, cfl, cap if cap < rest else rest, *fields)
            # ceil(x / d) > n iff x > n d for an integer n; d is 0 when the alphas overflow
            left = MAX_STEPS - log.steps
            if budgeted and end - t > dt_cfl * left:
                raise CflError(
                    f"step budget: t={t:g} to t_end={end:g} at dt={dt_cfl:.4g} "
                    f"takes more than the {left} steps left of the {MAX_STEPS} a run may take"
                )
            log.add(dt_cfl, dt)
            t += dt
            if every_step and t < near:
                yield t, fields, log
        t = target
        yield t, fields, log


def run(v0: TorusPoly, flux: PiecewiseFlux | None, grid: TorusGrid,
        cfg: SolverConfig) -> Trajectory:
    """Evolve torus data v0 under an m-component flux to t_end, recording observables.

    ``evolve`` steps v0 to each record time and t_end, where a row holds t,
    the L1 distance to the data mean C, field min/max, and mass; ``stepping``
    is its ``StepLog`` record.  Rank-zero data (constant, m = 0) shortcut to
    the constant solution and read neither flux nor grid.
    """
    c = v0.mean
    times = sorted({0.0, float(cfg.t_end)} | {float(t) for t in cfg.record_times})
    if v0.m == 0:
        return Trajectory([], [{"t": t, "l1_to_mean": 0.0, "min": c, "max": c, "mass": c}
                               for t in times], StepLog(cfg.cfl).record())
    rows, fields = [], []
    # one yield per record time, none between them
    for t, (v,), log in evolve(flux, cfg.cfl, grid, (v0,), times, every_step=False):
        rows.append(_observe(t, v, c))
        fields.append(v)
    return Trajectory(fields=fields, rows=rows, stepping=log.record())


@dataclass(frozen=True)
class TravelingWave:
    """Exact solution (a+b)/2 + (b-a)/2 sin(2 pi (kbar.y - tau t))."""

    mid: float
    amp: float
    kbar: tuple[int, ...]
    tau: float

    def __call__(self, t: float, y) -> np.ndarray:
        ys = np.atleast_2d(np.asarray(y, dtype=float))
        phase = ys @ np.asarray(self.kbar, dtype=float) - self.tau * t
        out = self.mid + self.amp * np.sin(2.0 * np.pi * phase)
        return float(out[0]) if np.asarray(y).ndim == 1 else out

    def torus_poly(self, t: float) -> TorusPoly:
        """Exact torus-polynomial snapshot at time t (for cell averages)."""
        a_k = complex((self.amp / 2j) * np.exp(-2j * np.pi * self.tau * t))
        if not cmath.isfinite(a_k):
            raise ValueError(f"the wave's phase 2 pi tau t at t={t:g} lies beyond float "
                             f"range (tau={self.tau:g})")
        terms = {self.kbar: a_k}
        m = len(self.kbar)
        if self.mid != 0.0:
            terms[(0,) * m] = complex(self.mid)
        return TorusPoly(m, terms)


def exact_counterexample(flux: PiecewiseFlux, gb: SpectrumGroupBasis,
                         a, b, kbar, tau: float | None = None) -> TravelingWave:
    """Traveling-wave exact solution on [a, b] for a direction kbar.

    Requires kbar != 0 (xi = 0 makes every flux affine, and the wave a
    constant) and xi.phi (xi = sum_j kbar_j lambda_j) to be exactly
    affine on [a, b]; refuses otherwise.  When ``tau`` is given it must
    match the exact affine slope.
    """
    a, b = Fraction(a), Fraction(b)
    kbar = tuple(int(x) for x in kbar)
    if not any(kbar):
        raise ValueError(f"kbar={kbar} has no nonzero entry: the wave would be constant")
    d = directional(flux, kbar, gb)
    aff = affine_on(d, a, b)
    if aff is None:
        raise CounterexampleError(
            f"directional flux for kbar={kbar} is not affine on [{a}, {b}]")
    slope = _value(aff[0], d._den, flux.basis.values)
    if tau is not None and abs(slope - tau) > 1e-12 * max(1.0, abs(tau)):
        raise CounterexampleError(
            f"declared slope {tau} differs from exact slope {slope}")
    return TravelingWave(
        mid=float((a + b) / 2),
        amp=float((b - a) / 2),
        kbar=kbar,
        tau=slope,
    )


# --- output files -------------------------------------------------------------

def _write_atomic(path: str, *chunks: bytes):
    """``chunks`` in turn at ``path``, through a ``.tmp`` file and one atomic replace."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.writelines(chunks)
    os.replace(tmp, path)


def write_field(f: CellField, path: str):
    """Little-endian int64 m, N_1..N_m, then the row-major cell values as little-endian float64."""
    g = f.grid
    _write_atomic(path, struct.pack(f"<{g.m + 1}q", g.m, *g.shape),
                  f.values.astype("<f8").tobytes(order="C"))


def read_field(path: str) -> CellField:
    with open(path, "rb") as fh:
        (m,) = struct.unpack("<q", fh.read(8))
        shape = struct.unpack(f"<{m}q", fh.read(8 * m))
        data = np.frombuffer(fh.read(), dtype="<f8").reshape(shape)
    return CellField(TorusGrid(shape), data.copy())
