"""Monotone first-order finite volumes on the periodic torus, m in {1,2,3}.

Unsplit conservative update with a Rusanov numerical flux per axis,
F(a, b) = (phi(a) + phi(b))/2 - (alpha/2)(b - a), where alpha_j is one
global viscosity per step and axis: the max of |phi_j'| over the current
field range, with no safety factor, which ``lip_bound`` takes in closed
form from the piece ends and the critical points of phi_j' between them.
For a linear flux at a Courant number of 1 the step is exact upwind, a
shift by one cell.  ``advance`` is the one place that chooses the alphas:
it computes them once per step, takes dt from them and hands the same
alphas to ``step``.  ``evolve`` is the one time loop that calls it: ``run``
and the harness's two-field contraction both step through ``evolve``.

The update is monotone when every new value is a nondecreasing function
of the old ones.  Its weight on u_i is 1 - C, C = sum_j alpha_j dt/h_j
the Courant number, as the phi_i of the two faces of cell i cancel; its
weight on u_{i +- e_j} is (dt/2h_j)(alpha_j -+ phi_j'), which is >= 0 as
alpha_j >= |phi_j'|.  So the cap C <= 1 is all that monotonicity needs
(Crandall & Majda, Math. Comp. 34, 1980), and the step is refused beyond
it: above 1 the weight on u_i is negative.  A monotone step is
conservative, max-principle stable, L1-contractive, and cell-entropy
dissipative for the Kruzhkov-type numerical entropy flux
Q_j(a, b; k) = F_j(a max k, b max k) - F_j(a min k, b min k).

Shared evaluation and the folded scale: ``_per_axis`` hands each axis j
values phi and a weight w with Phi_j(u) = w phi(u), Phi_j the flux's
component j.  ``_faces`` computes 2F/w on every face as
(phi_i + phi_{i+1}) - (alpha_j/w)(u_{i+1} - u_i), and ``step`` scales its
difference by w dt N_j / 2.  The lift of scalar data (n = 1) has
Phi_j = lambda_j phi, so one evaluation of the data flux phi per step
serves every axis, with w = lambda_j: on T^2 or T^3 one range check and one
Horner pass replace two or three.  The range is the one the field
already holds (``CellField.vmin``/``vmax``), so an evaluation in a step
reduces nothing unless that range is NaN.  Every other component (of a direct
flux, of a lift of n >= 2 data, or with a weight that is 0 or not
finite) is evaluated as itself with w = 1; for it the two halvings that
moved into the scale are exact on normal floats, so the step is that of
F itself bit for bit.  A power-of-two weight gives the same bits too.
Any other weight rounds w phi otherwise than the lifted coefficients
lambda_j c_d do, by an ulp or two of the field per step.
``entropy_residual`` runs the same face code.

Scratch rule: a step allocates no full-grid array but its flux
evaluations and the new values.  Per axis it writes the faces and then a
jump buffer, which takes the flux difference next; the first axis's takes
the new values too.  The jump buffer is the Horner result itself once no
later axis reads it, as it is still in cache: every axis of a direct
flux, the last axis of a shared one.  Otherwise the first axis's is a new
array, as it becomes the new values, and every later axis's is the jump
scratch of the grid.  The faces of every axis go into the grid's face
scratch.  The grid builds that pair once (``TorusGrid._scratch``), so
the step's memory does not churn the C heap, and a step writes its
grid's scratch: two threads must not step fields of one ``TorusGrid`` at
once.  ``entropy_residual`` holds two faces at once, so it passes face
buffers of its own.

Layout rule: every full-grid array of at least 64 KiB that a step writes
starts on a 64-byte cache line: each Horner result, the first axis's jump
buffer and the grid's two scratch arrays.  ``flux._empty`` allocates
them.  The jump buffer's passes write from its first element,
but the flux difference writes from flat element prod(shape[j+1:]) on, so
along the last axis those stores run one element off the line.  A fresh
numpy array of this size starts where malloc or mmap put it, typically 16
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

import cmath
import math
import operator
import os
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .flux import (
    PiecewiseFlux,
    _check_range,
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


# the largest Courant number sum_j alpha_j dt/h_j a step may take: the
# bound of monotonicity
MAX_CFL = 1.0

# the Courant number a config that names none runs at, 10% below the cap
DEFAULT_CFL = 0.9

# the most time steps one run, or one contraction pair, may take; the
# shipped configs and the bench workloads take at most a few thousand
MAX_STEPS = 1_000_000

# the most cells one grid, or points one orbit-mean cube, may hold; the
# shipped configs and the bench workloads use at most 262144
MAX_CELLS = 2 ** 24


def check_cfl(cfl: float) -> float:
    """``cfl``, refused with ValueError unless it lies in (0, 1]."""
    if not 0.0 < cfl <= MAX_CFL:
        raise ValueError("cfl must lie in (0, 1]")
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
    def _scratch(self) -> tuple[np.ndarray, np.ndarray]:
        """The face and jump buffers every step on this grid writes, built on its first step."""
        like = np.empty(self.shape)
        return _empty(like), _empty(like)

    @property
    def cell_volume(self) -> float:
        v = 1.0
        for n in self.shape:
            v /= n
        return v

    def centers(self, axis: int) -> np.ndarray:
        n = self.shape[axis]
        return (np.arange(n) + 0.5) / n


class CellField:
    """Cell-average values on a TorusGrid; treated as immutable.

    ``vmin`` and ``vmax`` are the values' range, reduced once here.
    ``lip_bound``, ``eval_component`` and ``_observe`` trust them, so
    ``values`` must not be written after construction.
    """

    __slots__ = ("grid", "values", "vmin", "vmax")

    def __init__(self, grid: TorusGrid, values):
        values = np.ascontiguousarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} != grid {grid.shape}")
        self.grid = grid
        self.values = values
        # the ufunc reductions ndarray.min/max call, NaN propagating alike
        self.vmin = float(np.minimum.reduce(values, axis=None))
        self.vmax = float(np.maximum.reduce(values, axis=None))

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
    Courant number sum_j alpha_j dt/h_j.  A step's Courant number is
    cfl * (dt / dt_cfl), as dt_cfl = cfl / sum_j alpha_j/h_j; dt <= dt_cfl,
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
    closed-form outer product.  The field mean equals the zero coefficient
    (aliased modes are killed by the sinc factor).
    """
    if p.m != g.m:
        raise ValueError("polynomial and grid dimensions differ")
    acc = np.zeros(g.shape, dtype=complex)
    for k, amp in p.terms.items():
        vecs = [np.sinc(kj * hj) * np.exp(2j * np.pi * kj * (np.arange(nj) + 0.5) * hj)
                for kj, nj, hj in zip(k, g.shape, g.h)]
        acc = acc + _times_per_axis(np.asarray(amp, dtype=complex), vecs)
    return CellField(g, p.real(acc))


def cfl_dt(f: CellField, cfl: float, alphas: tuple[float, ...]) -> float:
    """Largest admissible dt for the viscosities ``alphas``: cfl / sum_j alpha_j/h_j.

    Only the grid of ``f`` is read.  With all alpha_j = 0 (a flux constant
    on the range) every dt is admissible, and the result is infinite.
    """
    check_cfl(cfl)
    denom = 0.0
    for a, h in zip(alphas, f.grid.h):
        denom += a / h
    if denom == 0.0:
        return math.inf
    return cfl / denom


# the scalar twin of each ufunc ``_neighbours`` takes: the same IEEE operation
_SCALAR_OP = {np.add: operator.add, np.subtract: operator.sub}


def _neighbours(op, x: np.ndarray, j: int, out: np.ndarray, upper: bool):
    """out = op(x_{i+1}, x_i) along axis j of the torus, stored at i (at i+1 if ``upper``).

    In 1D that is one ufunc call on the slices offset by one cell, and
    the one pair that wraps round the torus, for which a scalar operation
    costs far less than a ufunc call.  In n-D, ``x`` and ``out`` are
    C-contiguous, so the work runs on their flat views, where one cell
    along axis j is s = prod(shape[j+1:]) elements: slices offset by s
    need no shifted copy and keep the loops contiguous.  The pairs that
    wrap round the torus come out wrong on the flat views and are redone
    from the first and last slabs of axis j.
    """
    if x.ndim == 1:
        op(x[1:], x[:-1], out=out[1:] if upper else out[:-1])
        out[0 if upper else -1] = _SCALAR_OP[op](x[0], x[-1])
        return
    s = math.prod(x.shape[j + 1:])
    xf, of = x.reshape(-1), out.reshape(-1)
    op(xf[s:], xf[:-s], out=of[s:] if upper else of[:-s])
    first = (slice(None),) * j + (slice(None, 1),)
    last = (slice(None),) * j + (slice(-1, None),)
    op(x[first], x[last], out=out[first] if upper else out[last])


def _per_axis(flux: PiecewiseFlux, u):
    """For each axis j in turn, (phi, w, free): values phi with Phi_j(u) = w * phi.

    ``u`` goes to ``eval_component`` as given: ``step`` passes the field,
    whose range spares the evaluation its reductions, ``entropy_residual``
    the arrays u max k and u min k.  The lift of a scalar flux has
    Phi_j = lambda_j phi, so the data flux is evaluated once, on the
    first axis that needs it, and shared with weight w = lambda_j.  Any
    other component, of a direct flux or of a lift of n >= 2 data, is
    evaluated as itself, with w = 1.  ``free`` says that no later axis
    reads phi, so the caller may overwrite it.
    """
    weights = flux._weights
    phi = None
    for j, w in enumerate(weights):
        if w is None:
            yield flux.eval_component(j, u), 1.0, True
        else:
            if phi is None:
                phi = flux._lift[0].eval_component(0, u)
            yield phi, w, not any(weights[j + 1:])


def _faces(u: np.ndarray, phi: np.ndarray, a: float, j: int,
           face: np.ndarray, jump: np.ndarray):
    """2/w times the Rusanov flux on face i+1/2 of every cell along axis j, in ``face``.

    The face is (phi_i + phi_{i+1}) - a (u_{i+1} - u_i) with a = alpha_j / w,
    (phi, w, free) from ``_per_axis``.  ``jump`` holds the jump and is then
    free for the caller to overwrite, as the flux difference does; callers
    pass phi itself when ``free`` (phi is still in cache).  Returns ``face``.
    """
    _neighbours(np.add, phi, j, face, upper=False)
    _neighbours(np.subtract, u, j, jump, upper=False)
    jump *= a
    face -= jump
    return face


def _flux_difference(face: np.ndarray, j: int, scale: float, out: np.ndarray) -> np.ndarray:
    """scale * (face_{i+1/2} - face_{i-1/2}) along axis j, written into ``out``."""
    _neighbours(np.subtract, face, j, out, upper=True)
    out *= scale
    return out


def step(f: CellField, flux: PiecewiseFlux, dt: float,
         alphas: tuple[float, ...]) -> CellField:
    """One unsplit conservative update with the per-axis viscosities ``alphas``.

    ``advance`` passes the ones it took dt from, shared by every field it
    steps.  Refuses CFL violations.
    """
    g = f.grid
    if flux.n != g.m:
        raise ValueError("flux component count must match grid dimension")
    courant = 0.0
    for a, h in zip(alphas, g.h):
        courant += a * dt / h
    # rounding only: dt = cfl / sum_j alpha_j/h_j at cfl 1 gives a Courant
    # number an ulp or two from 1; a NaN one (0 * inf) fails this test too
    if not courant <= MAX_CFL * (1.0 + 1e-12):
        raise CflError(
            f"CFL violation: sum_j alpha_j dt/h_j = {courant:.6g} > 1 "
            f"(dt={dt:.6g}, alphas={alphas}, shape={g.shape})"
        )
    u = f.values
    face, scratch = g._scratch
    div = None
    for j, (phi, w, free) in enumerate(_per_axis(flux, f)):
        # axis 0's jump buffer takes the new values, so it is a new array
        jump = phi if free else _empty(u) if div is None else scratch
        _faces(u, phi, alphas[j] / w, j, face, jump)
        d = _flux_difference(face, j, 0.5 * w * dt * g.shape[j], jump)
        if div is None:
            div = d
        else:
            div += d
    return CellField(g, np.subtract(u, div, out=div))


def advance(flux: PiecewiseFlux, cfl: float, t_remaining: float,
            *fields: CellField) -> tuple[float, float, list[CellField]]:
    """One monotone step of every field with one operator; returns (dt_cfl, dt, stepped fields).

    Alphas over the joint range of the fields, the CFL step dt_cfl from
    them, then every field stepped with those alphas and
    dt = min(dt_cfl, ``t_remaining``).
    """
    # plain loops: in 1D this Python overhead is a visible part of a step
    lo, hi = fields[0].vmin, fields[0].vmax
    for f in fields:
        if f.vmin < lo:
            lo = f.vmin
        if f.vmax > hi:
            hi = f.vmax
    alphas = lip_bound(flux, lo, hi)
    dt_cfl = cfl_dt(fields[0], cfl, alphas)
    dt = min(dt_cfl, t_remaining)
    stepped = []
    for f in fields:
        stepped.append(step(f, flux, dt, alphas))
    return dt_cfl, dt, stepped


def _l1(f: CellField, other) -> float:
    """prod_j h_j * sum_cells |f - other|, ``other`` an array on f's grid or a scalar."""
    return f.grid.cell_volume * float(np.sum(np.abs(f.values - other)))


def l1_distance(f: CellField, g: CellField) -> float:
    """prod_j h_j * sum_cells |f - g|."""
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    return _l1(f, g.values)


def entropy_residual(before: CellField, after: CellField, flux: PiecewiseFlux,
                     dt: float, k: float, alphas: tuple[float, ...]) -> float:
    """Max cell entropy-inequality violation for threshold k.

    Uses the numerical entropy flux Q_j(a,b;k) = F_j(a max k, b max k)
    - F_j(a min k, b min k) with ``alphas``, the viscosities the step used;
    nonpositive (up to roundoff) for any monotone step.
    """
    g = before.grid
    if flux.n != g.m:
        raise ValueError("flux component count must match grid dimension")
    u, u2 = before.values, after.values
    k = float(k)
    acc = np.abs(u2 - k) - np.abs(u - k)
    umax = np.maximum(u, k)
    umin = np.minimum(u, k)
    # two faces at once, so face buffers of its own rather than the grid's pair
    qface, face = _empty(u), _empty(u)
    for j, ((phi_max, w, free), (phi_min, _, _)) in enumerate(zip(_per_axis(flux, umax),
                                                                  _per_axis(flux, umin))):
        jump = phi_max if free else _empty(u)
        _faces(umax, phi_max, alphas[j] / w, j, qface, jump)
        qface -= _faces(umin, phi_min, alphas[j] / w, j, face, phi_min if free else _empty(u))
        acc += _flux_difference(qface, j, 0.5 * w * dt * g.shape[j], jump)
    return float(acc.max())


def fourier_coeff(f: CellField, kbar) -> complex:
    """Midpoint quadrature of the torus Fourier coefficient at kbar.

    On N_j cells along axis j, k_j and k_j + N_j read the same grid mode,
    so the coefficient stands for kbar alone only when 2|k_j| < N_j on
    every axis; the harness refuses any other probe.
    """
    g = f.grid
    kbar = tuple(int(c) for c in kbar)
    if len(kbar) != g.m:
        raise ValueError("kbar length must match grid dimension")
    vecs = [np.exp(-2j * np.pi * kj * g.centers(axis)) for axis, kj in enumerate(kbar)]
    w = _times_per_axis(f.values.astype(complex), vecs)
    return complex(w.sum() * g.cell_volume)


def _observe(t: float, v: CellField, c: float) -> dict:
    return {
        "t": t,
        "l1_to_mean": _l1(v, c),
        "min": v.vmin,
        "max": v.vmax,
        "mass": v.grid.cell_volume * float(np.sum(v.values)),
    }


def evolve(flux: PiecewiseFlux, cfl: float, grid: TorusGrid, data, times, cap=math.inf):
    """Step the exact cell averages of torus polynomials ``data`` jointly; yield (t, fields, log).

    A joint range outside the flux's working range is refused before the
    first yield, as observing it may overflow.  Each step is one ``advance``
    of every field, added to ``log``, one ``StepLog``.  Yields after each step
    and at each of ``times`` (ascending from 0.0), where t lands exactly; a
    time reached within 1e-14 takes no step.  dt passes neither the next time
    nor ``cap``.  A finite ``times[-1]`` is refused with ``CflError`` once the
    steps taken plus ceil((times[-1] - t) / dt_cfl) would exceed ``MAX_STEPS``.
    """
    fields = [exact_cell_average(p, grid) for p in data]
    _check_range(flux, min(f.vmin for f in fields), max(f.vmax for f in fields))
    log, t = StepLog(cfl), 0.0
    for target in times:
        while t < target - 1e-14:
            dt_cfl, dt, fields = advance(flux, cfl, min(target - t, cap), *fields)
            # ceil(x / d) > n iff x > n d for an integer n; d is 0 when the alphas overflow
            left = MAX_STEPS - log.steps
            if times[-1] - t > dt_cfl * left and times[-1] < math.inf:
                raise CflError(
                    f"step budget: t={t:g} to t_end={times[-1]:g} at dt={dt_cfl:.4g} "
                    f"takes more than the {left} steps left of the {MAX_STEPS} a run may take"
                )
            log.add(dt_cfl, dt)
            t += dt
            if t < target - 1e-14:
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
    if grid.m != v0.m:
        raise ValueError(f"problem needs a {v0.m}-dimensional grid")
    rows, fields = [], []
    for t, (v,), log in evolve(flux, cfg.cfl, grid, (v0,), times):
        if t == times[len(rows)]:  # not a step between record times
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
