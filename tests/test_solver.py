"""Monotone scheme invariants: conservation, contraction, entropy, waves."""

import logging
import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apcl.solver as solver_mod
import apcl.flux as flux_mod
from apcl.flux import PiecewiseFlux, _empty, lift_flux, lip_bound
from apcl.freqlattice import Frequency, FrequencyBasis, SpectrumGroupBasis, _clear, group_basis
from apcl.solver import (
    CellField,
    advance,
    CflError,
    CounterexampleError,
    SolverConfig,
    TorusGrid,
    TravelingWave,
    cfl_dt,
    entropy_residual,
    exact_cell_average,
    exact_counterexample,
    fourier_coeff,
    l1_distance,
    read_field,
    run,
    step,
    write_field,
)
from apcl.trigpoly import TorusPoly
from bitwise import same_bits

B1 = FrequencyBasis.rational()


def burgers_1d(lo=-2, hi=2):
    return PiecewiseFlux(B1, [lo, hi], [[["0", "0", "1/2"]]])


def test_grid_validation():
    g = TorusGrid((8, 4))
    assert g.m == 2
    assert g.h == pytest.approx((0.125, 0.25))
    assert g.cell_volume == pytest.approx(1 / 32)
    with pytest.raises(ValueError):
        TorusGrid((8, 4, 2, 2))
    with pytest.raises(ValueError):
        TorusGrid((1,))
    with pytest.raises(ValueError):
        TorusGrid(())


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(t_end=1.0, cfl=0.6)
    with pytest.raises(ValueError):
        SolverConfig(t_end=0.0)
    with pytest.raises(ValueError):
        SolverConfig(t_end=1.0, record_times=(2.0,))
    cfg = SolverConfig(t_end=1.0, record_times=(0.5,))
    assert cfg.record_times == (0.5,)


def test_exact_cell_average_constant():
    g = TorusGrid((16,))
    f = exact_cell_average(TorusPoly(1, {(0,): 0.7}), g)
    assert f.values == pytest.approx(np.full(16, 0.7))


def test_exact_cell_average_cosine_n4():
    g = TorusGrid((4,))
    v = TorusPoly(1, {(1,): 0.5})  # cos 2 pi y
    f = exact_cell_average(v, g)
    h = 0.25
    centers = (np.arange(4) + 0.5) * h
    expect = np.sinc(h) * np.cos(2 * np.pi * centers)
    assert f.values == pytest.approx(expect, abs=1e-15)
    assert abs(f.mean()) <= 1e-15


def test_exact_cell_average_mean_is_a0():
    rng = np.random.default_rng(7)
    terms = {(0, 0): 0.37 + 0j}
    for k in [(1, 0), (0, 2), (3, 1)]:
        terms[k] = complex(rng.normal(), rng.normal())
    v = TorusPoly(2, terms)
    f = exact_cell_average(v, TorusGrid((32, 16)))
    assert f.mean() == pytest.approx(0.37, abs=1e-14)


def test_cfl_dt_burgers_range():
    g = TorusGrid((100,))
    vals = np.linspace(-1.0, 1.0, 100)
    f = CellField(g, vals)
    dt = cfl_dt(f, 0.45, lip_bound(burgers_1d(), f.vmin, f.vmax))
    assert 0.0040 <= dt <= 0.0045


def test_cfl_dt_affine_constant_field():
    g = TorusGrid((10,))
    f = CellField(g, np.full(10, 0.3))
    aff = PiecewiseFlux(B1, [-1, 1], [[["0", "2"]]])
    dt = cfl_dt(f, 0.45, lip_bound(aff, f.vmin, f.vmax))
    assert 0.0204 <= dt <= 0.0225


def test_cfl_dt_zero_flux_returns_remaining():
    g = TorusGrid((10,))
    f = CellField(g, np.zeros(10))
    zero = PiecewiseFlux(B1, [-1, 1], [[["0"]]])
    assert cfl_dt(f, 0.45, lip_bound(zero, f.vmin, f.vmax)) == math.inf
    assert advance(zero, 0.45, 0.75, f)[:2] == (math.inf, 0.75)


def _face(a, b, flux, alpha):
    # face 1/2 of the two-cell periodic field [a, b] sits between a and b;
    # ``_faces`` gives twice the Rusanov flux of a component evaluated as
    # itself (w = 1, its values free to overwrite)
    u = np.array([a, b])
    face, _ = solver_mod._faces(u, flux.eval_component(0, u), alpha, 0, True)
    return 0.5 * float(face[0])


def test_rusanov_examples():
    phi = lambda u: u * u / 2
    assert _face(0.4, 0.4, burgers_1d(), 1.0) == pytest.approx(phi(0.4))
    assert _face(1.0, -1.0, burgers_1d(), 1.0) == pytest.approx(1.5)
    tau = 0.7
    lin = PiecewiseFlux(B1, [-1, 1], [[["0", "7/10"]]])
    a, b, al = 0.3, -0.2, 1.1
    assert _face(a, b, lin, al) == pytest.approx(
        tau * (a + b) / 2 - al / 2 * (b - a)
    )


def test_step_constant_unchanged():
    g = TorusGrid((32,))
    f = CellField(g, np.full(32, 0.4))
    _, _, (f2,) = advance(burgers_1d(), 0.45, 0.001, f)
    assert f2.values == pytest.approx(f.values, abs=1e-16)


def test_step_conserves_and_bounds():
    rng = np.random.default_rng(42)
    g = TorusGrid((64,))
    f = CellField(g, rng.uniform(-1, 1, 64))
    flux = burgers_1d()
    for _ in range(20):
        _, _, (f2,) = advance(flux, 0.45, math.inf, f)
        assert f2.mean() == pytest.approx(f.mean(), rel=1e-13, abs=1e-15)
        assert f2.vmin >= f.vmin - 1e-14
        assert f2.vmax <= f.vmax + 1e-14
        f = f2


def test_advance_steps_every_field_with_one_operator():
    rng = np.random.default_rng(7)
    g = TorusGrid((64,))
    fa = CellField(g, rng.uniform(-0.5, 0.5, 64))
    flux = burgers_1d()
    # one field: the alphas of its own range, dt from them, one step
    alphas = lip_bound(flux, fa.vmin, fa.vmax)
    dt = cfl_dt(fa, 0.4, alphas)
    dt_cfl, got_dt, (va,) = advance(flux, 0.4, 0.5, fa)
    assert dt_cfl == got_dt == dt
    assert np.array_equal(va.values, step(fa, flux, dt, alphas).values)
    # a step capped by the time left still reports the uncapped CFL step
    assert advance(flux, 0.4, 1e-6, fa)[:2] == (dt, 1e-6)
    # two fields: the alphas of the joint range, shared by both steps; the
    # second field widens the range below, then above
    for lo, hi in ((-1.5, 0.3), (-0.3, 1.5)):
        fb = CellField(g, rng.uniform(lo, hi, 64))
        joint = lip_bound(flux, min(fa.vmin, fb.vmin), max(fa.vmax, fb.vmax))
        _, dt2, (wa, wb) = advance(flux, 0.4, 0.5, fa, fb)
        assert dt2 == cfl_dt(fa, 0.4, joint) < dt
        assert np.array_equal(wa.values, step(fa, flux, dt2, joint).values)
        assert np.array_equal(wb.values, step(fb, flux, dt2, joint).values)


def test_step_cfl_refusal():
    g = TorusGrid((64,))
    f = CellField(g, np.linspace(-1, 1, 64))
    flux = burgers_1d()
    with pytest.raises(CflError):
        step(f, flux, 1.0, lip_bound(flux, f.vmin, f.vmax))


def test_step_refuses_a_dt_that_is_not_finite():
    g = TorusGrid((4,))
    flux = burgers_1d()
    # phi' vanishes on the range: the alphas are 0, every dt passes the
    # cap and the Courant number is 0 * inf = NaN
    with pytest.raises(CflError):
        advance(flux, 0.45, math.inf, CellField(g, np.zeros(4)))
    with pytest.raises(CflError):
        step(CellField(g, np.linspace(-1, 1, 4)), flux, math.nan, (1.0,))


def test_step_2d_conserves():
    rng = np.random.default_rng(3)
    g = TorusGrid((16, 24))
    f = CellField(g, rng.uniform(0, 1, (16, 24)))
    flux = PiecewiseFlux(B1, [-2, 2], [[["0", "0", "1/2"], ["0", "1/3"]]])
    _, _, (f2,) = advance(flux, 0.45, math.inf, f)
    assert f2.mean() == pytest.approx(f.mean(), rel=1e-13)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_step_comonotone(seed):
    """f <= g cellwise is preserved when both advance with shared alphas."""
    rng = np.random.default_rng(seed)
    g = TorusGrid((32,))
    lo = rng.uniform(-1, 0, 32)
    hi = lo + rng.uniform(0, 1, 32)
    fa, fb = CellField(g, lo), CellField(g, hi)
    flux = burgers_1d()
    alphas = lip_bound(flux, min(fa.vmin, fb.vmin), max(fa.vmax, fb.vmax))
    dt = 0.45 / sum(a / h for a, h in zip(alphas, g.h))
    fa2 = step(fa, flux, dt, alphas=alphas)
    fb2 = step(fb, flux, dt, alphas=alphas)
    assert np.all(fa2.values <= fb2.values + 1e-14)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=15, deadline=None)
def test_l1_contraction_random_pairs(seed):
    rng = np.random.default_rng(seed)
    g = TorusGrid((48,))
    fa = CellField(g, rng.uniform(-1, 1, 48))
    fb = CellField(g, rng.uniform(-1, 1, 48))
    flux = burgers_1d()
    d = l1_distance(fa, fb)
    for _ in range(10):
        alphas = lip_bound(flux, min(fa.vmin, fb.vmin), max(fa.vmax, fb.vmax))
        dt = 0.45 / sum(a / h for a, h in zip(alphas, g.h))
        fa = step(fa, flux, dt, alphas=alphas)
        fb = step(fb, flux, dt, alphas=alphas)
        d2 = l1_distance(fa, fb)
        assert d2 <= d + 1e-12
        d = d2


def test_l1_distance_basics():
    g = TorusGrid((10,))
    f = CellField(g, np.arange(10, dtype=float))
    assert l1_distance(f, f) == 0.0
    g2 = CellField(g, np.arange(10, dtype=float) + 0.3)
    assert l1_distance(f, g2) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        l1_distance(f, CellField(TorusGrid((5,)), np.zeros(5)))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_l1_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    g = TorusGrid((16,))
    a, b, c = (CellField(g, rng.uniform(-2, 2, 16)) for _ in range(3))
    assert l1_distance(a, c) <= l1_distance(a, b) + l1_distance(b, c) + 1e-12


def test_entropy_residual_constant_zero():
    g = TorusGrid((32,))
    f = CellField(g, np.full(32, 0.25))
    flux = burgers_1d()
    alphas = lip_bound(flux, f.vmin, f.vmax)
    dt = 0.001
    f2 = step(f, flux, dt, alphas)
    assert entropy_residual(f, f2, flux, dt, 0.1, alphas) <= 1e-15


def test_entropy_residual_riemann_sweep():
    g = TorusGrid((128,))
    vals = np.where(np.arange(128) < 64, 1.0, -1.0)
    f = CellField(g, vals)
    flux = burgers_1d()
    for _ in range(5):
        alphas = lip_bound(flux, f.vmin, f.vmax)
        dt = cfl_dt(f, 0.45, alphas)
        f2 = step(f, flux, dt, alphas)
        for k in np.linspace(-1, 1, 20):
            assert entropy_residual(f, f2, flux, dt, float(k), alphas) <= 1e-12
        f = f2


def test_entropy_residual_k_below_min_telescopes():
    rng = np.random.default_rng(11)
    g = TorusGrid((64,))
    f = CellField(g, rng.uniform(0.2, 0.8, 64))
    flux = burgers_1d()
    alphas = lip_bound(flux, f.vmin, f.vmax)
    dt = cfl_dt(f, 0.45, alphas)
    f2 = step(f, flux, dt, alphas)
    k = -1.0  # below the field minimum
    assert entropy_residual(f, f2, flux, dt, k, alphas) <= 1e-12
    # |u - k| = u - k here, so its mean is conserved exactly
    m1 = float(np.mean(np.abs(f.values - k)))
    m2 = float(np.mean(np.abs(f2.values - k)))
    assert m2 == pytest.approx(m1, rel=1e-13)


def test_run_zero_flux_constant_in_time():
    zero = PiecewiseFlux(B1, [-2, 2], [[["0"]]])
    v0 = TorusPoly(1, {(0,): 0.2, (1,): 0.25j})
    traj = run(v0, zero, TorusGrid((64,)), SolverConfig(t_end=1.0, record_times=(0.5,)))
    assert len(traj.rows) == 3
    first = traj.fields[0].values
    for f in traj.fields[1:]:
        assert f.values == pytest.approx(first, abs=1e-14)


def test_run_records_and_mean():
    v0 = TorusPoly(1, {(0,): 0.3, (1,): -0.25j})
    traj = run(v0, burgers_1d(), TorusGrid((128,)),
               SolverConfig(t_end=0.5, record_times=(0.25,)))
    assert [r["t"] for r in traj.rows] == pytest.approx([0.0, 0.25, 0.5])
    assert traj.rows[0]["l1_to_mean"] == pytest.approx(1 / (2 * np.pi) * 2, rel=1e-3)
    for r in traj.rows:
        assert r["mass"] == pytest.approx(0.3, abs=1e-13)


def test_run_refuses_a_run_over_its_step_budget(monkeypatch):
    v0 = TorusPoly(1, {(0,): 0.3, (1,): -0.25j})
    calls = []
    real = solver_mod.advance
    monkeypatch.setattr(solver_mod, "advance", lambda *a: calls.append(1) or real(*a))
    full = run(v0, burgers_1d(), TorusGrid((64,)), SolverConfig(t_end=0.5))
    n = len(calls)
    assert 10 < n < 100
    calls.clear()
    monkeypatch.setattr(solver_mod, "MAX_STEPS", 5)
    with pytest.raises(CflError, match="the 5 a run may take"):
        run(v0, burgers_1d(), TorusGrid((64,)), SolverConfig(t_end=0.5))
    # refused at the first step, not when the budget has run out
    assert len(calls) == 1
    # a step shortened to hit a record time does not count as the CFL step
    monkeypatch.setattr(solver_mod, "MAX_STEPS", 2 * n)
    near = SolverConfig(t_end=0.5, record_times=(1e-9,))
    traj = run(v0, burgers_1d(), TorusGrid((64,)), near)
    assert [r["t"] for r in traj.rows] == [0.0, 1e-9, 0.5]
    assert traj.rows[-1]["mass"] == pytest.approx(full.rows[-1]["mass"], abs=1e-13)
    # a linear flux keeps dt fixed, so the estimate is exact: a budget of
    # the run's own step count k lets it finish, k - 1 does not
    transport = PiecewiseFlux(B1, [-2, 2], [[["0", "1"]]])
    monkeypatch.setattr(solver_mod, "MAX_STEPS", 10 ** 6)
    calls.clear()
    run(v0, transport, TorusGrid((64,)), SolverConfig(t_end=0.5))
    k = len(calls)
    monkeypatch.setattr(solver_mod, "MAX_STEPS", k)
    run(v0, transport, TorusGrid((64,)), SolverConfig(t_end=0.5))
    monkeypatch.setattr(solver_mod, "MAX_STEPS", k - 1)
    with pytest.raises(CflError):
        run(v0, transport, TorusGrid((64,)), SolverConfig(t_end=0.5))


def test_run_rank_zero_constant():
    traj = run(TorusPoly(0, {(): 0.7}), None, None,
               SolverConfig(t_end=2.0, record_times=(1.0,)))
    assert [r["l1_to_mean"] for r in traj.rows] == [0.0, 0.0, 0.0]
    assert all(r["mass"] == 0.7 for r in traj.rows)


def test_run_grid_dimension_mismatch():
    v0 = TorusPoly(2, {(0, 0): 0.3, (1, 0): -0.25j})
    with pytest.raises(ValueError):
        run(v0, None, TorusGrid((32,)), SolverConfig(t_end=0.1))


def test_traveling_wave_profile_and_range():
    w = TravelingWave(mid=0.0, amp=0.25, kbar=(1,), tau=0.5)
    ys = np.linspace(0, 1, 101).reshape(-1, 1)
    v0 = w(0.0, ys)
    assert v0.max() <= 0.25 + 1e-12
    assert v0.min() >= -0.25 - 1e-12
    assert w(0.0, np.array([[0.25]]))[0] == pytest.approx(0.25)
    # torus_poly agrees with the callable
    p = w.torus_poly(0.8)
    assert p.eval(ys) == pytest.approx(w(0.8, ys), abs=1e-12)


def test_traveling_wave_l1_constant_in_time():
    w = TravelingWave(mid=0.1, amp=0.25, kbar=(1,), tau=0.5)
    g = TorusGrid((512,))
    for t in (0.0, 0.7, 2.3):
        f = exact_cell_average(w.torus_poly(t), g)
        ref = CellField(g, np.full(512, 0.1))
        assert l1_distance(f, ref) == pytest.approx(0.5 / np.pi, rel=1e-4)


def test_exact_counterexample_validates():
    aff = PiecewiseFlux(B1, [Fraction(-1, 2), Fraction(1, 2)], [[["0", "1/2"]]])
    gb = group_basis([Frequency.of(B1, [[1]])])
    w = exact_counterexample(aff, gb, Fraction(-1, 4), Fraction(1, 4), (1,))
    assert w.tau == pytest.approx(0.5)
    assert w.mid == pytest.approx(0.0)
    assert w.amp == pytest.approx(0.25)


def test_exact_counterexample_rejects_nondegenerate():
    gb = group_basis([Frequency.of(B1, [[1]])])
    with pytest.raises(CounterexampleError, match="not affine on"):
        exact_counterexample(burgers_1d(), gb, Fraction(-1, 4), Fraction(1, 4), (1,))


def test_exact_counterexample_rejects_wrong_tau():
    aff = PiecewiseFlux(B1, [Fraction(-1, 2), Fraction(1, 2)], [[["0", "1/2"]]])
    gb = group_basis([Frequency.of(B1, [[1]])])
    with pytest.raises(CounterexampleError):
        exact_counterexample(aff, gb, Fraction(-1, 4), Fraction(1, 4), (1,),
                             tau=0.75)


def test_exact_counterexample_needs_order():
    aff = PiecewiseFlux(B1, [Fraction(-1, 2), Fraction(1, 2)], [[["0", "1/2"]]])
    gb = group_basis([Frequency.of(B1, [[1]])])
    with pytest.raises(ValueError):
        exact_counterexample(aff, gb, Fraction(1, 4), Fraction(-1, 4), (1,))


def test_exact_counterexample_refuses_a_zero_kbar():
    # xi = 0 makes every flux affine, and the "wave" a constant
    aff = PiecewiseFlux(B1, [Fraction(-1, 2), Fraction(1, 2)], [[["0", "1/2"]]])
    gb = group_basis([Frequency.of(B1, [[1]])])
    with pytest.raises(ValueError, match="no nonzero entry"):
        exact_counterexample(aff, gb, 0, Fraction(1, 2), (0,))


def test_fourier_coeff_probe():
    g = TorusGrid((64, 64))
    v = TorusPoly(2, {(1, 0): 0.5, (0, 0): 0.3})
    f = exact_cell_average(v, g)
    a = fourier_coeff(f, (1, 0))
    assert abs(a - 0.5) <= 1e-3
    assert abs(fourier_coeff(f, (0, 1))) <= 1e-14
    assert fourier_coeff(f, (0, 0)) == pytest.approx(0.3)


def test_field_dump_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    g = TorusGrid((6, 4, 3))
    f = CellField(g, rng.normal(size=(6, 4, 3)))
    path = os.path.join(tmp_path, "f.bin")
    write_field(f, path)
    f2 = read_field(path)
    assert f2.grid.shape == (6, 4, 3)
    assert f2.values == pytest.approx(f.values, abs=0)
    raw = Path(path).read_bytes()
    assert len(raw) == 8 + 3 * 8 + 6 * 4 * 3 * 8
    assert int.from_bytes(raw[:8], "little") == 3


def test_run_deterministic():
    v0 = TorusPoly(1, {(0,): 0.3, (1,): -0.25j})
    cfg = SolverConfig(t_end=0.3)
    a = run(v0, burgers_1d(), TorusGrid((64,)), cfg)
    b = run(v0, burgers_1d(), TorusGrid((64,)), cfg)
    assert np.array_equal(a.fields[-1].values, b.fields[-1].values)


# --- reference: the unfused step ----------------------------------------------
# np.roll shifts and npoly.polyval on per-piece masked gathers.  The fused
# kernel must reproduce its values exactly: the same bytes, so the same
# signs of zero, wherever they are not NaN.

def _ref_eval_component(flux, j, u):
    from numpy.polynomial import polynomial as npoly

    u = np.clip(u, *flux.urange)
    idx = np.clip(np.searchsorted(flux._bp_f, u, side="right") - 1, 0, flux.npieces - 1)
    out = np.empty_like(u)
    for p in range(flux.npieces):
        mask = idx == p
        if np.any(mask):
            out[mask] = npoly.polyval(u[mask], flux._coef_f[p, j])
    return out


def _ref_face(flux, j, u, alpha):
    phi = _ref_eval_component(flux, j, u)
    return 0.5 * (phi + np.roll(phi, -1, axis=j)) \
        - 0.5 * alpha * (np.roll(u, -1, axis=j) - u)


def _ref_step(f, flux, dt, alphas):
    u = f.values
    div = np.zeros_like(u)
    for j in range(f.grid.m):
        face = _ref_face(flux, j, u, alphas[j])
        div += (dt * f.grid.shape[j]) * (face - np.roll(face, 1, axis=j))
    return u - div


def _ref_entropy_residual(before, after, flux, dt, k, alphas):
    u, u2 = before.values, after.values
    acc = np.abs(u2 - k) - np.abs(u - k)
    umax, umin = np.maximum(u, k), np.minimum(u, k)
    for j in range(before.grid.m):
        qface = _ref_face(flux, j, umax, alphas[j]) - _ref_face(flux, j, umin, alphas[j])
        acc += (dt * before.grid.shape[j]) * (qface - np.roll(qface, 1, axis=j))
    return float(acc.max())


def _burgers_nd(m, basis=B1):
    return PiecewiseFlux(basis, [-2, 2], [[["0", "0", "1/2"]] * m])


def _three_piece_nd(m, basis=B1):
    """Continuous quadratic, affine, quadratic on [-2, -1/3, 2/5, 2]; component j times j+1.

    The interior breakpoints are not floats, so at their float shadows the
    two adjacent pieces round differently and the tie rule shows in the bits.
    """
    base = [["1/9", "1", "1/2"], ["0", "1/2"], ["3/25", "0", "1/2"]]
    pieces = [
        [[str(Fraction(c) * (j + 1)) for c in comp] for j in range(m)]
        for comp in base
    ]
    return PiecewiseFlux(basis, ["-2", "-1/3", "2/5", "2"], pieces)


def _cubic_nd(m):
    """(j+1)(u^3 + u): zero constant and u^2 coefficients."""
    return PiecewiseFlux(B1, [-2, 2], [[[0, j + 1, 0, j + 1] for j in range(m)]])


def _padded_nd(m):
    """Cubic, zero-padded affine, cubic on [-2, -1/3, 2/5, 2]; component j times j+1.

    The outer pieces are u^3 + u/2 + c with no u^2 term, the middle one is
    u/2 given with two zero coefficients on top, so the Horner plans skip
    interior zeros and trim leading ones.
    """
    base = [["1/27", "1/2", "0", "1"], ["0", "1/2", "0", "0"], ["-8/125", "1/2", "0", "1"]]
    pieces = [
        [[str(Fraction(c) * (j + 1)) for c in comp] for j in range(m)]
        for comp in base
    ]
    return PiecewiseFlux(B1, ["-2", "-1/3", "2/5", "2"], pieces)


# fields for the reference comparisons, on the pieces of _three_piece_nd
# [-2, -1/3, 2/5, 2]; eval_component takes one Horner pass when the whole
# field lies in one piece and gathers per-cell coefficients otherwise
FIELDS = ("spread", "one-piece", "tie-at-min", "tie-at-max", "nan", "above", "below",
          "signed-zero")


def _field_values(kind, shape, rng):
    """Values of one field kind, and the number of them outside [-2, 2]."""
    if kind == "spread":
        vals = rng.uniform(-2.0, 2.0, shape)
        # breakpoints themselves: ties go right, the last (u_P = 2) goes left
        flat = vals.reshape(-1)
        flat[:5] = [-2.0, -1 / 3, 2 / 5, 2.0, 0.0][:flat.size]
        flat[7::11] = 2 / 5
        flat[9::13] = -1 / 3
        return vals, 0
    # strictly inside the middle piece
    vals = rng.uniform(-0.3, 0.39, shape)
    flat = vals.reshape(-1)
    if kind == "tie-at-min":
        # the min is the float shadow of -1/3, which goes right: still one piece
        flat[::7] = -1 / 3
    elif kind == "tie-at-max":
        # the max is the shadow of 2/5, which goes right into the next piece
        flat[::7] = 2 / 5
    elif kind == "nan":
        flat[::5] = np.nan
    elif kind == "signed-zero":
        # exact zeros of both signs, in runs and scattered
        flat[:4] = -0.0
        flat[4:7] = 0.0
        flat[9::5] = -0.0
        flat[11::7] = 0.0
    elif kind in ("above", "below"):
        # partly outside the working range [-2, 2] on one side
        flat[1::6] = 2.5 if kind == "above" else -3.0
        return vals, len(flat[1::6])
    return vals, 0


def _clamp_counts(caplog):
    return [r.args[0] for r in caplog.records if r.getMessage().startswith("clamped")]


# 1D shapes on both sides of the 64 KiB layout bound (8192 cells), where
# the Horner product is a plain x * c below it and a multiply into an
# aligned buffer at it
@pytest.mark.parametrize("shape", [(2,), (64,), (2048,), (8191,), (8192,), (12, 10),
                                   (6, 5, 4), (96, 96), (24, 24, 16)])
@pytest.mark.parametrize("make_flux", [_burgers_nd, _three_piece_nd, _cubic_nd, _padded_nd])
def test_fused_step_matches_reference_bitwise(shape, make_flux, caplog):
    flux = make_flux(len(shape))
    g = TorusGrid(shape)
    for kind in FIELDS:
        vals, bad = _field_values(kind, shape, np.random.default_rng(len(shape)))
        f = CellField(g, vals)
        ok = not np.isnan(vals).any() and not bad
        clipped = np.clip(vals, -2.0, 2.0)
        alphas = lip_bound(flux, np.nanmin(clipped), np.nanmax(clipped))
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="apcl.flux"):
            if ok:
                # advance takes the alphas of the field's own range, as
                # above; dt is capped at unit time, as the contraction run
                # caps it, since two -0.0 cells under Burgers give all
                # alphas 0 and so no CFL cap
                _, dt, (new,) = advance(flux, 0.45, 1.0, f)
            else:
                dt = cfl_dt(f, 0.45, alphas)
                new = step(f, flux, dt, alphas)
        # one clamp warning per axis, counting every value outside the range
        assert _clamp_counts(caplog) == ([bad] * len(shape) if bad else []), kind
        assert same_bits(new.values, _ref_step(f, flux, dt, alphas)), kind
        if ok:
            for k in (-2.0, -1 / 3, 0.1, 2 / 5, 2.0):
                assert entropy_residual(f, new, flux, dt, k, alphas) == \
                    _ref_entropy_residual(f, new, flux, dt, k, alphas), kind


B2 = FrequencyBasis.with_sqrt(2)
B3 = FrequencyBasis(("1", "sqrt2", "sqrt3"), (1.0, math.sqrt(2.0), math.sqrt(3.0)))


def _lifted(make_flux, basis, *gens):
    """``lift_flux`` of the scalar make_flux(1, basis) over the generators ``gens``.

    Each generator is a list of rational basis coordinates.  They are taken
    as given, without a Hermite reduction, so a dependent set like {1, 2}
    makes a lifted flux too.
    """
    rows, den = _clear(gens)
    gb = SpectrumGroupBasis(basis, 1, tuple(tuple(r) for r in rows), den=den)
    return lift_flux(make_flux(1, basis), gb)


# generators over {1} whose floats are powers of two: then each lifted
# coefficient is exactly w times the data flux's, and so are its values
DYADIC = [((2048,), ([Fraction(1, 2)],)), ((8192,), ([2],)), ((12, 10), ([1], [2])),
          ((96, 96), ([Fraction(1, 2)], [1])), ((6, 5, 4), ([1], [2], [Fraction(1, 2)])),
          ((24, 24, 16), ([2], [Fraction(1, 2)], [1]))]
# the generators of the lifted_nd bench: {1, sqrt2} on T^2, {1, sqrt2, sqrt3} on T^3
IRRATIONAL = [((96, 96), B2, ([1, 0], [0, 1])),
              ((24, 24, 16), B3, ([1, 0, 0], [0, 1, 0], [0, 0, 1]))]


@pytest.mark.parametrize("shape, gens", DYADIC)
@pytest.mark.parametrize("make_flux", [_burgers_nd, _three_piece_nd])
def test_shared_step_of_a_dyadic_lift_matches_reference_bitwise(shape, gens, make_flux, caplog):
    flux = _lifted(make_flux, B1, *gens)
    assert flux._weights == tuple(float(w) for (w,) in gens)
    g = TorusGrid(shape)
    for kind in FIELDS:
        vals, bad = _field_values(kind, shape, np.random.default_rng(len(shape)))
        f = CellField(g, vals)
        ok = not np.isnan(vals).any() and not bad
        clipped = np.clip(vals, -2.0, 2.0)
        alphas = lip_bound(flux, np.nanmin(clipped), np.nanmax(clipped))
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="apcl.flux"):
            if ok:
                _, dt, (new,) = advance(flux, 0.45, 1.0, f)
            else:
                dt = cfl_dt(f, 0.45, alphas)
                new = step(f, flux, dt, alphas)
        # the data flux is evaluated once per step, so one clamp warning
        assert _clamp_counts(caplog) == ([bad] if bad else []), kind
        assert same_bits(new.values, _ref_step(f, flux, dt, alphas)), kind
        if ok:
            for k in (-2.0, -1 / 3, 0.1, 2 / 5, 2.0):
                assert entropy_residual(f, new, flux, dt, k, alphas) == \
                    _ref_entropy_residual(f, new, flux, dt, k, alphas), kind


@pytest.mark.parametrize("shape, basis, gens", IRRATIONAL)
@pytest.mark.parametrize("make_flux", [_burgers_nd, _three_piece_nd])
def test_shared_step_of_an_irrational_lift_is_within_four_ulps(shape, basis, gens, make_flux):
    flux = _lifted(make_flux, basis, *gens)
    assert flux._weights == tuple(math.sqrt(k + 1) for k in range(len(gens)))
    g = TorusGrid(shape)
    for seed in range(3):
        for kind in ("spread", "one-piece", "tie-at-min", "tie-at-max", "signed-zero"):
            vals, _ = _field_values(kind, shape, np.random.default_rng(seed))
            f = CellField(g, vals)
            _, dt, (new,) = advance(flux, 0.45, 1.0, f)
            ref = _ref_step(f, flux, dt, lip_bound(flux, f.vmin, f.vmax))
            # w * phi rounds otherwise than the lifted coefficients lambda_j c_d
            # do; under the CFL cap the step moves each cell by an ulp or two
            # of the field's largest value
            assert np.max(np.abs(new.values - ref)) <= 4 * np.spacing(np.max(np.abs(vals))), kind


def test_a_zero_weight_falls_back_to_the_lifted_component():
    # lambda_2 = 1 - 2 h is not 0, but its float over the declared value
    # h = 0.5 is, and a zero weight cannot carry alpha_j / w: that axis
    # evaluates its own component (zero too), the other one shares phi
    basis = FrequencyBasis(("1", "h"), (1.0, 0.5))
    flux = _lifted(_burgers_nd, basis, [1, 0], [1, -2])
    assert flux._weights == (1.0, None)
    g = TorusGrid((12, 10))
    f = CellField(g, np.random.default_rng(2).uniform(-1.0, 1.0, g.shape))
    _, dt, (new,) = advance(flux, 0.45, 1.0, f)
    assert same_bits(new.values, _ref_step(f, flux, dt, lip_bound(flux, f.vmin, f.vmax)))


@pytest.mark.parametrize("shape, basis, gens", [(shape, B1, gens) for shape, gens in DYADIC[2:]]
                         + IRRATIONAL)
@pytest.mark.parametrize("make_flux", [_burgers_nd, _three_piece_nd])
def test_shared_step_is_monotone(shape, basis, gens, make_flux):
    flux = _lifted(make_flux, basis, *gens)
    g = TorusGrid(shape)
    rng = np.random.default_rng(17)
    fa = CellField(g, rng.uniform(-1.5, 1.5, shape))
    fb = CellField(g, rng.uniform(-1.0, 1.8, shape))
    for _ in range(3):
        alphas = lip_bound(flux, min(fa.vmin, fb.vmin), max(fa.vmax, fb.vmax))
        _, dt, (fa2, fb2) = advance(flux, 0.45, math.inf, fa, fb)
        for f, f2 in ((fa, fa2), (fb, fb2)):
            assert f2.mean() == pytest.approx(f.mean(), rel=1e-13, abs=1e-15)
            assert f2.vmin >= f.vmin - 1e-14
            assert f2.vmax <= f.vmax + 1e-14
            for k in (-1.5, -1 / 3, 0.1, 2 / 5, 1.8):
                assert entropy_residual(f, f2, flux, dt, k, alphas) <= 1e-12
        assert l1_distance(fa2, fb2) <= l1_distance(fa, fb) + 1e-12
        fa, fb = fa2, fb2


def test_eval_component_matches_polyval_on_breakpoints(caplog):
    cases = [(np.array([-2.0, -1 / 3, 2 / 5, 2.0, -1.25, 0.0, -0.0, 1e-170, -1e-170,
                        5e-324, 1.75]), 0)]
    # 8191 and 8192 values: the two sides of the layout bound, where the
    # first Horner product is taken two ways
    cases += [_field_values(kind, (n,), np.random.default_rng(7))
              for n in (40, 8191, 8192) for kind in FIELDS]
    for flux in (_three_piece_nd(2), _cubic_nd(2), _padded_nd(2)):
        for u, bad in cases:
            for j in range(2):
                caplog.clear()
                with caplog.at_level(logging.WARNING, logger="apcl.flux"):
                    got = flux.eval_component(j, u)
                assert _clamp_counts(caplog) == ([bad] if bad else [])
                assert same_bits(got, _ref_eval_component(flux, j, u))


@pytest.mark.parametrize("op", [np.add, np.subtract])
@pytest.mark.parametrize("upper", [False, True])
def test_neighbours_1d_branch_matches_nd_branch(op, upper):
    # the 1D branch (plain slices and a scalar wrap) against the n-D one
    # (flat views and a slab wrap) on the (N, 1) view of the same values
    x, _ = _field_values("signed-zero", (97,), np.random.default_rng(5))
    x[40::9] = np.nan
    for first, last in ((-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0), (np.nan, 1.0), (0.1, 0.2)):
        x[0], x[-1] = first, last
        got, want = np.full_like(x, 7.0), np.full((x.size, 1), 7.0)
        solver_mod._neighbours(op, x, 0, got, upper)
        solver_mod._neighbours(op, x.reshape(-1, 1), 0, want, upper)
        assert same_bits(got, want.reshape(-1)), (first, last)


def _on_line(a):
    return a.ctypes.data % 64 == 0


@pytest.mark.parametrize("shape", [(128, 128), (24, 24, 16)])
def test_full_grid_arrays_start_on_a_cache_line(shape, monkeypatch):
    # the arrays a step writes in full; a vector store into one that starts
    # off a 64-byte line splits a line (see the solver docstring)
    g = TorusGrid(shape)
    made = []

    def recorded(like):
        out = _empty(like)
        made.append(out)
        return out

    # the Horner results (flux), the faces and the jump buffers (solver)
    monkeypatch.setattr(flux_mod, "_empty", recorded)
    monkeypatch.setattr(solver_mod, "_empty", recorded)
    # a direct flux evaluates each component and takes the jump into its
    # values; the lift of a scalar flux evaluates its data flux once per
    # step and takes the jump into its values only along the last axis
    lifted = _lifted(_three_piece_nd, B1, *([k + 1] for k in range(g.m)))
    for flux, evals, jumps in ((_three_piece_nd(g.m), g.m, 0), (lifted, 1, g.m - 1)):
        f = CellField(g, np.random.default_rng(0).uniform(-2.0, 2.0, shape))
        # a plain allocation can land on a line by chance, so look at several
        for _ in range(4):
            made.clear()
            _, _, (f,) = advance(flux, 0.45, math.inf, f)
            # and per axis a face; the jump buffer takes the flux
            # difference, the first axis's the new values too
            assert len(made) == evals + g.m + jumps
            assert all(_on_line(a) for a in made)
            assert any(a is f.values for a in made)
            for j in range(g.m):
                # gathered coefficients, then one piece
                assert _on_line(flux.eval_component(j, f.values))
                assert _on_line(flux.eval_component(j, 0.1 * f.values))
    # below the size bound the allocation is a plain np.empty_like
    assert _empty(np.zeros(512)).flags.owndata
    assert not _empty(f.values).flags.owndata


def test_horner_plans_drop_zero_coefficients():
    # (top, interior coefficients or None where skipped, constant term)
    assert burgers_1d()._plans[0][0] == ((0.5, None, 0.0),)
    assert _cubic_nd(1)._plans[0][0] == ((1.0, None, 1.0, 0.0),)
    assert _padded_nd(1)._plans[0][0][1] == (0.5, 0.0)
    assert PiecewiseFlux(B1, [-1, 1], [[["1/4"]]])._plans[0][0] == ((0.0, 0.25),)
    # the gathered plan skips a column only where every piece has a zero
    gathered = _padded_nd(1)._plans[0][1]
    assert [c is None for c in gathered] == [False, True, False, False]


def test_run_calls_lip_bound_once_per_step(monkeypatch):
    calls = {"lip_bound": 0, "step": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solver_mod, "lip_bound", counted("lip_bound", solver_mod.lip_bound))
    monkeypatch.setattr(solver_mod, "step", counted("step", solver_mod.step))
    v0 = TorusPoly(2, {(0, 0): 0.3, (1, 0): -0.25j, (0, 1): 0.1j})
    run(v0, _burgers_nd(2), TorusGrid((32, 24)),
        SolverConfig(t_end=0.2, record_times=(0.05,)))
    assert calls["step"] > 10
    assert calls["lip_bound"] == calls["step"]
