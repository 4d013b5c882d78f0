"""Monotone first-order finite volumes on the periodic torus, m in {1,2,3}.

Unsplit conservative update with a Rusanov numerical flux per axis,
F(a, b) = (phi(a) + phi(b))/2 - (alpha/2)(b - a), where alpha_j is one
global viscosity per step and axis: 1.1 times the max of |phi_j'| over the
current field range, which ``lip_bound`` takes in closed form from the
piece ends and the critical points of phi_j' between them.  ``advance``
computes the alphas once per step, takes dt from them and hands the same
alphas to ``step``; ``run`` and the harness's two-field contraction both
step through it.  Under the CFL cap sum_j alpha_j dt/h_j <= 1/2 the
update is monotone, hence conservative, max-principle stable,
L1-contractive, and cell-entropy dissipative for the Kruzhkov-type
numerical entropy flux
Q_j(a, b; k) = F_j(a max k, b max k) - F_j(a min k, b min k).
"""

from __future__ import annotations

import math
import operator
import os
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .flux import PiecewiseFlux, affine_on, directional, lip_bound, nondegeneracy_check
from .freqlattice import SpectrumGroupBasis
from .trigpoly import TorusPoly

__all__ = [
    "TorusGrid",
    "CellField",
    "SolverConfig",
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
    "run",
    "l1_distance",
    "entropy_residual",
    "fourier_coeff",
    "exact_counterexample",
    "write_field",
    "read_field",
]


# the most time steps one run, or one contraction pair, may take; the
# shipped configs and the bench workloads take at most a few thousand
MAX_STEPS = 1_000_000

# the most cells one grid, or points one orbit-mean cube, may hold; the
# shipped configs and the bench workloads use at most 262144
MAX_CELLS = 2 ** 24


class CflError(RuntimeError):
    """Refusal to take a time step that violates the CFL cap."""


class CounterexampleError(RuntimeError):
    """Refusal to build a traveling wave on a non-affine flux.

    Carries the non-degeneracy verdict for the offending flux/basis pair
    in ``verdict``.
    """

    def __init__(self, message, verdict=None):
        super().__init__(message)
        self.verdict = verdict


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
    """Cell-average values on a TorusGrid; treated as immutable."""

    __slots__ = ("grid", "values", "vmin", "vmax")

    def __init__(self, grid: TorusGrid, values):
        values = np.ascontiguousarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} != grid {grid.shape}")
        self.grid = grid
        self.values = values
        self.vmin = float(values.min())
        self.vmax = float(values.max())

    def mean(self) -> float:
        return float(self.values.mean())


@dataclass(frozen=True)
class SolverConfig:
    t_end: float
    cfl: float = 0.45
    record_times: tuple[float, ...] = ()

    def __post_init__(self):
        if not 0.0 < self.cfl <= 0.5:
            raise ValueError("cfl must lie in (0, 1/2]")
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")
        rt = tuple(float(t) for t in self.record_times)
        object.__setattr__(self, "record_times", rt)
        for t in rt:
            if t < 0.0 or t > self.t_end + 1e-12:
                raise ValueError(f"record time {t} outside [0, t_end]")


@dataclass
class Trajectory:
    times: list[float]
    fields: list[CellField]
    rows: list[dict]
    mean: float


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
        term = np.asarray(amp, dtype=complex)
        for axis, (kj, nj) in enumerate(zip(k, g.shape)):
            hj = 1.0 / nj
            vec = np.sinc(kj * hj) * np.exp(2j * np.pi * kj * (np.arange(nj) + 0.5) * hj)
            shape = [1] * g.m
            shape[axis] = nj
            term = term * vec.reshape(shape)
        acc = acc + term
    scale = sum(abs(a) for a in p.terms.values()) or 1.0
    resid = float(np.max(np.abs(acc.imag))) if acc.size else 0.0
    assert resid <= 1e-12 * scale, f"imaginary residue {resid:.3e} in cell averages"
    return CellField(g, acc.real)


def cfl_dt(f: CellField, flux: PiecewiseFlux, cfl: float = 0.45,
           t_remaining: float = np.inf,
           alphas: tuple[float, ...] | None = None) -> float:
    """Largest admissible dt: cfl / sum_j alpha_j/h_j on the field's range.

    With all alpha_j = 0 (flux constant on the range) the remaining time
    wins; the result is always capped by ``t_remaining``.  ``alphas``
    overrides the viscosities, as in ``step``; only the grid of ``f`` is
    used then.
    """
    if not 0.0 < cfl <= 0.5:
        raise ValueError("cfl must lie in (0, 1/2]")
    if alphas is None:
        alphas = lip_bound(flux, f.vmin, f.vmax)
    denom = sum(a / h for a, h in zip(alphas, f.grid.h))
    if denom == 0.0:
        return t_remaining
    return min(cfl / denom, t_remaining)


# the scalar twin of each ufunc ``_neighbours`` takes: the same IEEE operation
_SCALAR_OP = {np.add: operator.add, np.subtract: operator.sub}


def _neighbours(op, x: np.ndarray, j: int, out: np.ndarray, upper: bool):
    """out = op(x_{i+1}, x_i) along axis j of the torus, stored at i (at i+1 if ``upper``).

    ``x`` and ``out`` are C-contiguous, so the work runs on their flat
    views, where one cell along axis j is s = prod(shape[j+1:]) elements:
    slices offset by s need no shifted copy and keep the loops contiguous.
    The pairs that wrap round the torus come out wrong on the flat views
    and are redone from the first and last slabs of axis j; in 1D that is
    one pair, for which a scalar operation costs far less than a ufunc call.
    """
    s = math.prod(x.shape[j + 1:])
    xf, of = x.reshape(-1), out.reshape(-1)
    op(xf[s:], xf[:-s], out=of[s:] if upper else of[:-s])
    if x.ndim == 1:
        of[0 if upper else -1] = _SCALAR_OP[op](xf[0], xf[-1])
        return
    first = (slice(None),) * j + (slice(None, 1),)
    last = (slice(None),) * j + (slice(-1, None),)
    op(x[first], x[last], out=out[first] if upper else out[last])


def _faces(u: np.ndarray, alphas: tuple[float, ...], flux: PiecewiseFlux,
           j: int) -> np.ndarray:
    """Rusanov flux F_j(u_i, u_{i+1}) on face i+1/2 of every cell along axis j."""
    u = np.ascontiguousarray(u)
    phi = flux.eval_component(j, u)
    face = np.empty_like(u)
    _neighbours(np.add, phi, j, face, upper=False)
    face *= 0.5
    jump = phi  # phi is no longer needed
    _neighbours(np.subtract, u, j, jump, upper=False)
    jump *= 0.5 * alphas[j]
    face -= jump
    return face


def _flux_difference(face: np.ndarray, j: int, scale: float) -> np.ndarray:
    """scale * (face_{i+1/2} - face_{i-1/2}) along axis j."""
    out = np.empty_like(face)
    _neighbours(np.subtract, face, j, out, upper=True)
    out *= scale
    return out


def step(f: CellField, flux: PiecewiseFlux, dt: float,
         alphas: tuple[float, ...] | None = None) -> CellField:
    """One unsplit conservative update; refuses CFL violations.

    ``alphas`` overrides the per-axis viscosities (``advance`` passes the
    ones it took dt from, shared by every field it steps); the default
    recomputes them from the field's own range.
    """
    g = f.grid
    if flux.n != g.m:
        raise ValueError("flux component count must match grid dimension")
    if alphas is None:
        alphas = lip_bound(flux, f.vmin, f.vmax)
    courant = sum(a * dt / h for a, h in zip(alphas, g.h))
    if courant > 0.5 * (1.0 + 1e-9):
        raise CflError(
            f"CFL violation: sum_j alpha_j dt/h_j = {courant:.6g} > 1/2 "
            f"(dt={dt:.6g}, alphas={alphas}, shape={g.shape})"
        )
    u = f.values
    div = _flux_difference(_faces(u, alphas, flux, 0), 0, dt * g.shape[0])
    for j in range(1, g.m):
        div += _flux_difference(_faces(u, alphas, flux, j), j, dt * g.shape[j])
    return CellField(g, u - div)


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
    dt_cfl = cfl_dt(fields[0], flux, cfl, alphas=alphas)
    dt = min(dt_cfl, t_remaining)
    stepped = []
    for f in fields:
        stepped.append(step(f, flux, dt, alphas))
    return dt_cfl, dt, stepped


def l1_distance(f: CellField, g: CellField) -> float:
    """prod_j h_j * sum_cells |f - g|."""
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    return f.grid.cell_volume * float(np.sum(np.abs(f.values - g.values)))


def entropy_residual(before: CellField, after: CellField, flux: PiecewiseFlux,
                     dt: float, k: float,
                     alphas: tuple[float, ...] | None = None) -> float:
    """Max cell entropy-inequality violation for threshold k.

    Uses the numerical entropy flux Q_j(a,b;k) = F_j(a max k, b max k)
    - F_j(a min k, b min k) with the same viscosities the step used;
    nonpositive (up to roundoff) for any monotone step.
    """
    g = before.grid
    if alphas is None:
        alphas = lip_bound(flux, before.vmin, before.vmax)
    u, u2 = before.values, after.values
    k = float(k)
    acc = np.abs(u2 - k) - np.abs(u - k)
    umax = np.maximum(u, k)
    umin = np.minimum(u, k)
    for j in range(g.m):
        qface = _faces(umax, alphas, flux, j)
        qface -= _faces(umin, alphas, flux, j)
        acc += _flux_difference(qface, j, dt * g.shape[j])
    return float(acc.max())


def fourier_coeff(f: CellField, kbar) -> complex:
    """Midpoint quadrature of the torus Fourier coefficient at kbar."""
    g = f.grid
    kbar = tuple(int(c) for c in kbar)
    if len(kbar) != g.m:
        raise ValueError("kbar length must match grid dimension")
    w = f.values.astype(complex)
    for axis, kj in enumerate(kbar):
        vec = np.exp(-2j * np.pi * kj * g.centers(axis))
        shape = [1] * g.m
        shape[axis] = g.shape[axis]
        w = w * vec.reshape(shape)
    return complex(w.sum() * g.cell_volume)


def _observe(t: float, v: CellField, c: float) -> dict:
    return {
        "t": t,
        "l1_to_mean": v.grid.cell_volume * float(np.sum(np.abs(v.values - c))),
        "min": v.vmin,
        "max": v.vmax,
        "mass": v.grid.cell_volume * float(np.sum(v.values)),
    }


def run(v0: TorusPoly, flux: PiecewiseFlux | None, grid: TorusGrid | None,
        cfg: SolverConfig) -> Trajectory:
    """Evolve torus data v0 under an m-component flux to t_end, recording observables.

    Initial data are the exact cell averages of v0; each record row holds
    t, the L1 distance to the data mean C, field min/max, and mass.  Each
    step is one ``advance``.
    Rank-zero data (constant, m = 0) shortcut to the constant solution and
    need neither flux nor grid.

    The run is refused with ``CflError`` as soon as the steps taken plus
    ceil((t_end - t) / dt) would exceed ``MAX_STEPS``, dt the CFL step
    of the current field before any cap to a record time.
    """
    c = v0.mean
    times = sorted({0.0, float(cfg.t_end)} | {float(t) for t in cfg.record_times})
    if v0.m == 0:
        rows = [
            {"t": t, "l1_to_mean": 0.0, "min": c, "max": c, "mass": c}
            for t in times
        ]
        return Trajectory(times=times, fields=[], rows=rows, mean=c)
    if grid is None or grid.m != v0.m:
        raise ValueError(f"problem needs a {v0.m}-dimensional grid")
    v = exact_cell_average(v0, grid)
    rows = [_observe(0.0, v, c)]
    fields = [v]
    t = 0.0
    steps = 0
    for target in times[1:]:
        while t < target - 1e-14:
            dt_cfl, dt, (v,) = advance(flux, cfg.cfl, target - t, v)
            # ceil(x / d) > n iff x > n d for an integer n; d is 0 when the
            # alphas overflow
            left = MAX_STEPS - steps
            if cfg.t_end - t > dt_cfl * left:
                raise CflError(
                    f"step budget: t={t:g} to t_end={cfg.t_end:g} at dt={dt_cfl:.4g} "
                    f"takes more than the {left} steps left of the {MAX_STEPS} a run may take"
                )
            steps += 1
            t += dt
        t = target
        rows.append(_observe(t, v, c))
        fields.append(v)
    return Trajectory(times=times, fields=fields, rows=rows, mean=c)


@dataclass(frozen=True)
class TravelingWave:
    """Exact solution (a+b)/2 + (b-a)/2 sin(2 pi (kbar.y - tau t))."""

    mid: float
    amp: float
    kbar: tuple[int, ...]
    tau: float
    c: float

    def __call__(self, t: float, y) -> np.ndarray:
        ys = np.atleast_2d(np.asarray(y, dtype=float))
        phase = ys @ np.asarray(self.kbar, dtype=float) - self.tau * t
        out = self.mid + self.amp * np.sin(2.0 * np.pi * phase)
        return float(out[0]) if np.asarray(y).ndim == 1 else out

    def torus_poly(self, t: float) -> TorusPoly:
        """Exact torus-polynomial snapshot at time t (for cell averages)."""
        a_k = (self.amp / 2j) * np.exp(-2j * np.pi * self.tau * t)
        terms = {self.kbar: complex(a_k)}
        m = len(self.kbar)
        if self.mid != 0.0:
            terms[(0,) * m] = complex(self.mid)
        return TorusPoly(m, terms)


def exact_counterexample(flux: PiecewiseFlux, gb: SpectrumGroupBasis,
                         a, b, kbar, tau: float | None = None) -> TravelingWave:
    """Traveling-wave exact solution on [a, b] for a direction kbar.

    Requires xi.phi (xi = sum_j kbar_j lambda_j) to be exactly affine on
    [a, b]; refuses otherwise, attaching the non-degeneracy verdict.  When
    ``tau`` is given it must match the exact affine slope.
    """
    from fractions import Fraction

    a, b = Fraction(a), Fraction(b)
    if not a < b:
        raise ValueError("need a < b")
    kbar = tuple(int(x) for x in kbar)
    dflux = directional(flux, kbar, gb)
    aff = affine_on(dflux, a, b)
    if aff is None:
        raise CounterexampleError(
            f"directional flux for kbar={kbar} is not affine on [{a}, {b}]",
            verdict=nondegeneracy_check(flux, gb),
        )
    slope, intercept = aff
    if tau is not None and abs(slope.value - tau) > 1e-12 * max(1.0, abs(tau)):
        raise CounterexampleError(
            f"declared slope {tau} differs from exact slope {slope.value}",
            verdict=nondegeneracy_check(flux, gb),
        )
    return TravelingWave(
        mid=float((a + b) / 2),
        amp=float((b - a) / 2),
        kbar=kbar,
        tau=slope.value,
        c=intercept.value,
    )


# --- flat binary field dumps -------------------------------------------------
# Layout: little-endian int64 header m, N_1..N_m, then the row-major cell
# values as little-endian float64.

def write_field(f: CellField, path: str):
    g = f.grid
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(struct.pack("<q", g.m))
        fh.write(struct.pack(f"<{g.m}q", *g.shape))
        fh.write(f.values.astype("<f8").tobytes(order="C"))
    os.replace(tmp, path)


def read_field(path: str) -> CellField:
    with open(path, "rb") as fh:
        (m,) = struct.unpack("<q", fh.read(8))
        shape = struct.unpack(f"<{m}q", fh.read(8 * m))
        data = np.frombuffer(fh.read(), dtype="<f8").reshape(shape)
    return CellField(TorusGrid(shape), data.copy())
