"""Monotone first-order finite volumes on the periodic torus, m in {1,2,3}.

A time step is m one-axis sweeps in turn (Godunov, or Lie, splitting).
Sweep j updates the field along axis j alone, with the Rusanov numerical
flux F_j(a, b) = (phi_j(a) + phi_j(b))/2 - (alpha_j/2)(b - a) of the
flux's component j.  alpha_j is one global viscosity per sweep: the max
of |phi_j'| over the joint range of the fields the sweep reads, with no
safety factor, which ``lip_bound`` takes in closed form from the piece
ends and the critical points of phi_j' between them.  In 1D a step is one
sweep.  For a linear flux at a Courant number of 1 a sweep is exact
upwind, a shift by one cell.  A run's ``_Stepper`` is the one place that
chooses dt and the alphas, 2m - 1 maxima a step on a flux that is not
affine on the range: dt from the alphas of the fields' range at the start
of the step, then each sweep with the alpha of what it reads, the start's
for sweep 0; on a flux that is, none after the first step (the range rule
below).  ``evolve``, the one time loop, builds one stepper per run: ``run``
and the harness's two-field contraction both step through it.  Every
full step on a carried bound has the bound's dt, so where ``evolve``
yields only at its times the stepper takes those up to the next step cut
short or time in one call (``_Stepper.full_steps``).

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
this reduces the range once, and the run's stepper keeps the bound
[lo - delta, hi + delta] with what a later step would find again
(``_carry``), alpha_j and the scale 0.5 dt_cfl N_j among it as 0-d
arrays, which a ufunc reads as the float each holds.  Strictly inside the
piece, a step on the bound would pass the range check and pick that
piece as the step that made it did, so its sweeps (``_Stepper._carried``)
check nothing but the Courant numbers against the cap, once a call, and run
the same ufuncs on the same operands: every value, alpha and dt keeps its bits.
``_Stepper.check`` asserts that the exact range lies in the bound (exit
5), at each record time of ``run`` and after the contraction's last step.

Drift bound: let s = |c_1| = alpha_j, r = |c_0/c_1|, M the largest |u|
a sweep reads and eps = 2^-53.  Each evaluated phi is off by at most
eps s (2M + r), each face (at most s (4M + 2r)) by eps s (14M + 6r), each
face difference by eps s (36M + 16r), and the update, scaled by
dt/2h_j <= (1 + 4 eps)/(2s) as the Courant number of a stepper's dt is
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
phi_j's array, so in 1D a stepper keeps phi_j's views and its next
carried sweep slices phi_j alone; ``step``, handed a field, and every n-D
sweep slice both.  No view is written once its values are a field's.
``entropy_residual`` holds two faces at once, so it has face buffers of its own.

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
    _horner,
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
    read and kept.  ``lip_bound``, ``eval_component``, the stepper and the
    range rule trust them, so ``values`` must not be written after
    construction: a sweep into a ping-pong buffer would break that silently.
    A sweep wraps its new values, its own C-contiguous float array of the
    grid's shape, through ``CellField._swept``, which skips the conversion
    and the shape check.
    """

    def __init__(self, grid: TorusGrid, values):
        values = np.ascontiguousarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} != grid {grid.shape}")
        self.grid = grid
        self.values = values

    @classmethod
    def _swept(cls, grid: TorusGrid, values: np.ndarray, reduce: bool) -> CellField:
        """The field of a sweep's new ``values``, its range reduced now if ``reduce``.

        ``step`` passes True, as the next step reads the range: here it costs
        about 1 us less than through the cached property.
        """
        field = object.__new__(cls)
        field.grid = grid
        field.values = values
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


def _cfl_violation(courant: float, axis: int, dt: float, alpha, shape) -> CflError:
    """The refusal of a sweep along ``axis`` whose Courant number passes ``_COURANT_CAP``."""
    return CflError(f"CFL violation: alpha_j dt/h_j = {courant:.6g} > 1 on axis {axis} "
                    f"(dt={dt:.6g}, alpha={alpha:.6g}, shape={shape})")


def step(f: CellField, flux: PiecewiseFlux, dt: float, alpha: float,
         axis: int = 0) -> CellField:
    """One sweep: the conservative update of ``f`` along ``axis`` alone, viscosity ``alpha``.

    A stepper with no bound composes one sweep per axis into a time step,
    each with the ``lip_bound`` of component ``axis`` over what it reads;
    in 1D a sweep is the step.  Refuses a Courant number alpha dt/h_axis above 1.
    """
    g = f.grid
    if flux.n != g.m:
        _check_components(flux, g.m, grid=True)
    courant = alpha * dt / g.h[axis]
    if not courant <= _COURANT_CAP:
        raise _cfl_violation(courant, axis, dt, alpha, g.shape)
    u = _offsets(f.values, axis)
    phi = _offsets(flux.eval_component(axis, f), axis)
    face = g._face_offsets[axis]
    _faces(u, phi, alpha, face)
    d = _flux_difference(face, _scale(dt, g.shape[axis]), phi)
    np.subtract(u[0], d, d)
    return CellField._swept(g, d, True)


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


_Bound = namedtuple("_Bound", "lo hi alphas dt_cfl courants sweeps")


def _carry(flux: PiecewiseFlux, lo: float, hi: float, field: CellField, cfl: float):
    """The range rule's bound of fields of joint range [lo, hi] on ``field``'s grid at ``cfl``.

    [lo - delta, hi + delta], delta the drift margin, when every component
    has degree <= 1 on the piece p that holds it strictly inside its ends;
    None otherwise, for a NaN range, and for one outside ``_LIMIT``'s rule.
    courants[j] is axis j's Courant number alpha_j dt_cfl/h_j, computed as
    ``step`` computes it; sweeps[j] is what sweep j of a step of dt_cfl
    reads: (j, component j's Horner plan on p, alpha_j, the grid's face
    views along j, 0.5 dt_cfl N_j), alpha_j and the scale as read-only 0-d
    arrays.  Refuses a flux of another component count, as no carried
    sweep checks it.
    """
    g = field.grid
    if flux.n != g.m:
        _check_components(flux, g.m, grid=True)
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
    return _Bound(lo_k, hi_k, alphas, dt_cfl, tuple(a * dt_cfl / h for a, h in zip(alphas, g.h)),
                  tuple(zip(range(g.m), (plans[p] for plans, _ in flux._plans),
                            (_constant(np.array(a)) for a in alphas), g._face_offsets,
                            (_constant(np.array(_scale(dt_cfl, n))) for n in g.shape))))


class _Stepper:
    """One run's steps of its ``fields`` on one grid under ``flux`` at ``cfl``, and their log.

    ``bound`` is the range rule's bound that its steps carry, or None; in
    1D ``_views`` holds the ``_offsets`` of the last carried sweeps' values.
    ``advance`` takes one step, ``full_steps`` k of the bound's dt in one loop.
    ``record`` gives the step count, the least and largest dt, and the peak
    Courant number max_j alpha_j dt/h_j with the alphas of the step's start,
    cfl * (dt / dt_cfl) as dt_cfl = cfl / max_j alpha_j/h_j: at most ``cfl``.
    """

    def __init__(self, flux: PiecewiseFlux, cfl: float, grid: TorusGrid, fields):
        self.flux, self.cfl, self.grid, self.fields = flux, cfl, grid, fields
        self.bound = self._views = None
        self.steps, self.dt_min, self.dt_max, self.ratio_max = 0, math.inf, 0.0, 0.0

    def advance(self, t_remaining: float) -> tuple[float, float]:
        """One monotone step of every field: (dt_cfl, dt), dt = min(dt_cfl, ``t_remaining``).

        Without a bound it plans one (``_carry``), so a range that moves onto
        an affine piece is carried from then on.
        """
        flux, fields, bound = self.flux, self.fields, self.bound
        # a flux with no affine piece, such as Burgers, pays this one read
        if bound is None and flux._affine_pieces:
            bound = self.bound = _carry(flux, *_joint_range(fields), fields[0], self.cfl)
        if bound is None:
            # 2m - 1 maxima, and a ``solver.step`` a sweep
            lo, hi = _joint_range(fields)
            if flux.n == 1:
                # no list of alphas, no axis loop, no comprehension frame (0.3 us, Python <= 3.11)
                alpha = lip_bound(flux, 0, lo, hi)
                dt_cfl = cfl_dt(fields[0], self.cfl, (alpha,))
                dt = t_remaining if t_remaining < dt_cfl else dt_cfl
                stepped = []
                for f in fields:
                    stepped.append(step(f, flux, dt, alpha, 0))
                self.fields = stepped
                return dt_cfl, dt
            alphas = [lip_bound(flux, j, lo, hi) for j in range(flux.n)]
            dt_cfl = cfl_dt(fields[0], self.cfl, alphas)
            dt = t_remaining if t_remaining < dt_cfl else dt_cfl
            for axis, alpha in enumerate(alphas):
                if axis:
                    alpha = lip_bound(flux, axis, *_joint_range(fields))
                fields = [step(f, flux, dt, alpha, axis) for f in fields]
            self.fields = fields
            return dt_cfl, dt
        g, dt_cfl = self.grid, bound.dt_cfl
        if t_remaining < dt_cfl:
            self._carried(1, t_remaining, [a * t_remaining / h for a, h in zip(bound.alphas, g.h)],
                          [(*sweep[:4], _scale(t_remaining, n))
                           for sweep, n in zip(bound.sweeps, g.shape)])
            return dt_cfl, t_remaining
        self._carried(1, dt_cfl, bound.courants, bound.sweeps)
        return dt_cfl, dt_cfl

    def full_steps(self, k: int):
        """k >= 1 steps of the bound's dt_cfl, logged as k ``advance`` and ``add`` calls leave."""
        b = self.bound
        self._carried(k, b.dt_cfl, b.courants, b.sweeps)
        self.add(b.dt_cfl, b.dt_cfl, k)

    def _carried(self, k: int, dt: float, courants, sweeps):
        """k steps of dt on the bound, each with dt's ``courants`` and ``sweeps`` (``_carry``).

        The bound's plan and 0-d alpha give ``step``'s ufuncs, operands and
        bits, with no range check.
        """
        g, m = self.grid, self.grid.m
        for axis, courant in enumerate(courants):
            if not courant <= _COURANT_CAP:
                raise _cfl_violation(courant, axis, dt, self.bound.alphas[axis], g.shape)
        views = self._views or [_offsets(f.values, 0) for f in self.fields]
        for n in range(k):
            for axis, plan, rate, face, scale in sweeps:
                if m > 1 and (n or axis):
                    views = [_offsets(u[0], axis) for u in views]
                swept = []  # plain loops: no comprehension frame
                for u in views:
                    phi = _offsets(_horner(plan, u[0]), axis)
                    _faces(u, phi, rate, face)
                    d = _flux_difference(face, scale, phi)
                    np.subtract(u[0], d, d)
                    swept.append(phi)
                views = swept
        fields = []
        for u in views:
            fields.append(CellField._swept(g, u[0], False))
        self.fields, self._views = fields, views if m == 1 else None

    def add(self, dt_cfl: float, dt: float, k: int = 1):
        """Log k >= 1 steps of ``dt`` whose CFL step was ``dt_cfl``."""
        self.steps += k
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

    def check(self, t: float):
        """Refuse, as an internal error (exit 5), a field whose exact range at t left the bound."""
        b = self.bound
        for f in self.fields if b else ():
            if not b.lo <= f.vmin <= f.vmax <= b.hi:
                raise AssertionError(f"the range [{f.vmin!r}, {f.vmax!r}] at t={t:g} left the "
                                     f"carried bound [{b.lo!r}, {b.hi!r}]")


def advance(flux: PiecewiseFlux, cfl: float, t_remaining: float,
            *fields: CellField) -> tuple[float, float, list[CellField]]:
    """One monotone step of every field with one operator; returns (dt_cfl, dt, stepped fields).

    The first step of a fresh ``_Stepper``, so no state carries across
    calls: on the bound of a flux affine on the fields' range, or with
    alpha_j over the joint range of what sweep j reads.
    """
    stepper = _Stepper(flux, cfl, fields[0].grid, fields)
    return (*stepper.advance(t_remaining), stepper.fields)


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
    """A record row of ``v`` at t, with its exact range."""
    return {
        "t": t,
        "l1_to_mean": _l1(v, c),
        "min": v.vmin,
        "max": v.vmax,
        "mass": v.grid.cell_volume * float(np.add.reduce(v.values, None)),
    }


def _over_budget(t: float, end: float, dt_cfl: float, left: int) -> CflError:
    """The refusal of a step at t whose ceil((end - t) / dt_cfl) passes the ``left`` steps."""
    # tested as end - t > dt_cfl left: ceil(x / d) > n iff x > n d for an integer n; d is 0
    # when the alphas overflow
    return CflError(f"step budget: t={t:g} to t_end={end:g} at dt={dt_cfl:.4g} "
                    f"takes more than the {left} steps left of the {MAX_STEPS} a run may take")


def evolve(flux: PiecewiseFlux, cfl: float, grid: TorusGrid, data, times, cap=math.inf,
           every_step: bool = True):
    """Step the cell averages of torus polynomials ``data`` jointly; yield (t, fields, stepper).

    A datum with a mode that the grid does not hold (``TorusGrid.holds``),
    whose cell averages would read another mode, is refused before the
    first yield, and so is a joint range outside the flux's working range,
    as observing it may overflow.  One ``_Stepper`` takes and logs every
    step.  Yields at each of ``times`` (ascending from 0.0), where t lands
    exactly, and, if ``every_step``, after each step too; a time reached
    within 1e-14 takes no step.  dt passes neither the next time nor
    ``cap``.  A finite ``times[-1]`` is refused with ``CflError`` once the
    steps taken plus ceil((times[-1] - t) / dt_cfl) would exceed ``MAX_STEPS``.
    Without ``every_step``, the full steps on a carried bound up to the next
    step cut short or time are counted here, each budget tested, and taken
    in one call.
    """
    fields = [exact_cell_average(p, grid) for p in data]
    for p in data:
        for k in p._firsts:
            if not grid.holds(k):
                raise ValueError(f"data mode {list(k)} needs 2|k_j| < N_j on the grid "
                                 f"{list(grid.shape)}")
    _check_range(flux, *_joint_range(fields))
    stepper, t = _Stepper(flux, cfl, grid, fields), 0.0
    end = times[-1]
    budgeted = end < math.inf
    for target in times:
        near = target - 1e-14
        while t < near:
            rest = target - t
            rest = cap if cap < rest else rest
            bound = stepper.bound
            if every_step or bound is None or rest < bound.dt_cfl:
                dt_cfl, dt = stepper.advance(rest)
                left = MAX_STEPS - stepper.steps
                if budgeted and end - t > dt_cfl * left:
                    raise _over_budget(t, end, dt_cfl, left)
                stepper.add(dt_cfl, dt)
                t += dt
                if every_step and t < near:
                    yield t, stepper.fields, stepper
            else:  # the steps that ``advance`` would take in full, counted, then taken
                dt, k = bound.dt_cfl, 0
                while t < near and (cap if cap < target - t else target - t) >= dt:
                    left = MAX_STEPS - stepper.steps - k
                    if budgeted and end - t > dt * left:
                        raise _over_budget(t, end, dt, left)
                    k += 1
                    t += dt
                stepper.full_steps(k)
        t = target
        yield t, stepper.fields, stepper


def run(v0: TorusPoly, flux: PiecewiseFlux | None, grid: TorusGrid,
        cfg: SolverConfig) -> Trajectory:
    """Evolve torus data v0 under an m-component flux to t_end, recording observables.

    ``evolve`` steps v0 to each record time and t_end, where a row holds t,
    the L1 distance to the data mean C, field min/max, and mass, once the
    stepper's ``check`` found the range inside any carried bound; ``stepping``
    is the stepper's record.  Rank-zero data (constant, m = 0) shortcut to
    the constant solution and read neither flux nor grid.
    """
    c = v0.mean
    times = sorted({0.0, float(cfg.t_end)} | {float(t) for t in cfg.record_times})
    if v0.m == 0:
        return Trajectory([], [{"t": t, "l1_to_mean": 0.0, "min": c, "max": c, "mass": c}
                               for t in times], _Stepper(flux, cfg.cfl, grid, []).record())
    rows, fields = [], []
    # one yield per record time, none between them
    for t, (v,), stepper in evolve(flux, cfg.cfl, grid, (v0,), times, every_step=False):
        stepper.check(t)
        rows.append(_observe(t, v, c))
        fields.append(v)
    return Trajectory(fields=fields, rows=rows, stepping=stepper.record())


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
