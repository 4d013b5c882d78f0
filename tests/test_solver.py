"""Monotone scheme invariants: conservation, contraction, entropy, waves."""

import importlib.util
import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

import apcl.solver as solver_mod
import apcl.flux as flux_mod
from apcl.flux import PiecewiseFlux, _empty, lift_flux, lip_bound
from apcl.freqlattice import Frequency, FrequencyBasis, SpectrumGroupBasis, _clear, group_basis
from apcl.solver import (
    CellField,
    advance,
    CflError,
    CounterexampleError,
    DEFAULT_CFL,
    SolverConfig,
    TorusGrid,
    TravelingWave,
    cfl_dt,
    entropy_residual,
    evolve,
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
import reference
from bitwise import same_bits
from sweeps import advance_with_sweeps, recorded_sweeps

B1 = FrequencyBasis.rational()


def burgers_1d(lo=-2, hi=2):
    return PiecewiseFlux(B1, [lo, hi], [[["0", "0", "1/2"]]])


def _alphas(flux, lo, hi):
    """Every component's ``lip_bound`` over [lo, hi], the alphas ``cfl_dt`` takes."""
    return tuple(lip_bound(flux, j, lo, hi) for j in range(flux.n))


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
        SolverConfig(t_end=1.0, cfl=math.nextafter(1.0, 2.0))
    with pytest.raises(ValueError):
        SolverConfig(t_end=0.0)
    with pytest.raises(ValueError):
        SolverConfig(t_end=1.0, record_times=(2.0,))
    cfg = SolverConfig(t_end=1.0, record_times=(0.5,))
    assert cfg.record_times == (0.5,)
    # past t_end by at most 1e-12 is rounding: the time is t_end itself
    with pytest.raises(ValueError):
        SolverConfig(t_end=0.5, record_times=(0.5 + 2e-12,))
    assert SolverConfig(t_end=0.5, record_times=(0.5 + 9e-13, 0.25)).record_times == (0.5, 0.25)
    # an infinite t_end would leave the run unbudgeted; NaN is no time
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            SolverConfig(t_end=bad)
    with pytest.raises(ValueError):
        SolverConfig(t_end=1.0, record_times=(math.nan,))


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


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_exact_cell_average_is_one_sum_over_pairs(data):
    # a real TorusPoly given twice: its terms in any order, either key of a
    # pair (with the conjugate coefficient) given, its mean anywhere
    n = data.draw(st.integers(1, 3))
    amp = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    keys = data.draw(st.lists(st.tuples(*[st.integers(-10, 10)] * n), max_size=4))
    pairs = {}
    for k in keys:
        if any(k) and tuple(-c for c in k) not in pairs:
            pairs[k] = data.draw(amp)
    terms = list(pairs.items())
    if data.draw(st.booleans()):
        terms.append(((0,) * n, data.draw(st.floats(-2.0, 2.0))))
    other = [(tuple(-c for c in k), a.conjugate()) if any(k) and data.draw(st.booleans())
             else (k, a) for k, a in data.draw(st.permutations(terms))]
    p, q = TorusPoly(n, terms), TorusPoly(n, other)
    g = TorusGrid(tuple(data.draw(st.integers(2, 12)) for _ in range(n)))
    got = exact_cell_average(p, g).values
    assert same_bits(got, exact_cell_average(q, g).values)
    # given in spectrum order, each pair's first key and then the zero, the
    # sum over every key adds the same values in the same order
    keys = p.spectrum()
    canonical = TorusPoly(n, [(k, p.terms[k]) for k in keys[:len(keys) - len(keys) // 2]])
    assert same_bits(got, reference.cell_average(canonical, g).values)
    # in any other order it differs in the order of its additions only, by
    # at most eps sum |a| for each of its len(terms) additions
    want = reference.cell_average(p, g).values
    amp_sum = math.fsum(abs(a) for a in p.terms.values())
    assert np.max(np.abs(got - want)) <= len(p.terms) * np.finfo(float).eps * amp_sum


def test_cfl_dt_burgers_range():
    g = TorusGrid((100,))
    vals = np.linspace(-1.0, 1.0, 100)
    f = CellField(g, vals)
    # alpha = max|u| = 1 exactly, so dt = cfl h
    dt = cfl_dt(f, 0.45, _alphas(burgers_1d(), f.vmin, f.vmax))
    assert dt == pytest.approx(0.45 / 100, rel=1e-15)


def test_cfl_dt_affine_constant_field():
    g = TorusGrid((10,))
    f = CellField(g, np.full(10, 0.3))
    aff = PiecewiseFlux(B1, [-1, 1], [[["0", "2"]]])
    dt = cfl_dt(f, 0.45, _alphas(aff, f.vmin, f.vmax))
    assert 0.0204 <= dt <= 0.0225


def test_cfl_dt_is_the_cfl_over_the_largest_axis_rate():
    g = TorusGrid((8, 32, 4))
    f = CellField(g, np.random.default_rng(1).uniform(-1.0, 1.0, g.shape))
    # alpha_j / h_j = 24, 16, 8: the first axis sets dt, not their sum 48
    assert cfl_dt(f, 0.9, (3.0, 0.5, 2.0)) == 0.9 / 24
    assert cfl_dt(f, 0.9, (0.0, 0.5, 0.0)) == 0.9 / 16
    assert cfl_dt(f, 0.9, (0.0, 0.0, 0.0)) == math.inf
    # (j+1) u/2: alphas 1/2, 1, 3/2, rates 4, 32, 6; at cfl 1 the sweep
    # along axis 1 runs at a Courant number of 1 and the others below it
    flux = _linear_nd(3)
    alphas = _alphas(flux, f.vmin, f.vmax)
    dt = cfl_dt(f, 1.0, alphas)
    assert alphas == (0.5, 1.0, 1.5) and dt == 1 / 32
    for j in range(3):
        step(f, flux, dt, alphas[j], j)
    # a sweep at a Courant number of 1 + 1e-10 is refused, on its own axis only
    for j in (0, 2):
        step(f, flux, (1 + 1e-10) * dt, alphas[j], j)
    with pytest.raises(CflError, match="on axis 1"):
        step(f, flux, (1 + 1e-10) * dt, alphas[1], 1)


def test_cfl_dt_zero_flux_returns_remaining():
    g = TorusGrid((10,))
    f = CellField(g, np.zeros(10))
    zero = PiecewiseFlux(B1, [-1, 1], [[["0"]]])
    assert cfl_dt(f, 0.45, _alphas(zero, f.vmin, f.vmax)) == math.inf
    assert advance(zero, 0.45, 0.75, f)[:2] == (math.inf, 0.75)


def _face(a, b, flux, alpha):
    # face 1/2 of the two-cell periodic field [a, b] sits between a and b;
    # ``_faces`` gives twice the Rusanov flux of component 0
    u = np.array([a, b])
    face = solver_mod._faces(*(solver_mod._offsets(a, 0) for a in (u, flux.eval_component(0, u))),
                             alpha, solver_mod._offsets(np.empty_like(u), 0))
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
    # one field: the alpha of its own range, dt from it, one step
    alpha = lip_bound(flux, 0, fa.vmin, fa.vmax)
    dt = cfl_dt(fa, 0.4, (alpha,))
    dt_cfl, got_dt, (va,) = advance(flux, 0.4, 0.5, fa)
    assert dt_cfl == got_dt == dt
    assert np.array_equal(va.values, step(fa, flux, dt, alpha).values)
    # a step capped by the time left still reports the uncapped CFL step
    assert advance(flux, 0.4, 1e-6, fa)[:2] == (dt, 1e-6)
    # two fields: the alpha of the joint range, shared by both steps; the
    # second field widens the range below, then above
    for lo, hi in ((-1.5, 0.3), (-0.3, 1.5)):
        fb = CellField(g, rng.uniform(lo, hi, 64))
        joint = lip_bound(flux, 0, min(fa.vmin, fb.vmin), max(fa.vmax, fb.vmax))
        _, dt2, (wa, wb) = advance(flux, 0.4, 0.5, fa, fb)
        assert dt2 == cfl_dt(fa, 0.4, (joint,)) < dt
        assert np.array_equal(wa.values, step(fa, flux, dt2, joint).values)
        assert np.array_equal(wb.values, step(fb, flux, dt2, joint).values)


def test_advance_sweeps_each_axis_with_the_alphas_of_what_it_reads():
    g = TorusGrid((12, 10))
    rng = np.random.default_rng(4)
    fa = CellField(g, rng.uniform(-1.5, 1.5, g.shape))
    fb = CellField(g, rng.uniform(-0.5, 1.9, g.shape))
    flux = _three_piece_nd(2)
    dt_cfl, dt, stepped, sweeps = advance_with_sweeps(flux, 0.9, math.inf, fa, fb)
    # dt from the alphas of the joint range at the start of the step
    assert dt == dt_cfl == cfl_dt(fa, 0.9, _alphas(flux, fa.vmin, fb.vmax))
    # both fields along axis 0, then both along axis 1, each sweep reading
    # the last one's output and stepping with the alpha of its own
    # component over the joint range of what the sweeps along its axis read
    assert [(b, j) for b, _, _, j in sweeps] == [(fa, 0), (fb, 0), (sweeps[0][1], 1),
                                                (sweeps[1][1], 1)]
    for j in range(2):
        reads = [b for b, _, _, axis in sweeps if axis == j]
        joint = lip_bound(flux, j, min(x.vmin for x in reads), max(x.vmax for x in reads))
        assert all(a == joint for _, _, a, axis in sweeps if axis == j)
    assert [a for _, a, _, j in sweeps if j == 1] == stepped
    # the second axis reads a narrower range, so its alpha is no larger
    # than the start's
    assert sweeps[2][2] <= lip_bound(flux, 1, fa.vmin, fb.vmax)


def test_step_cfl_refusal():
    g = TorusGrid((64,))
    f = CellField(g, np.linspace(-1, 1, 64))
    flux = burgers_1d()
    with pytest.raises(CflError):
        step(f, flux, 1.0, lip_bound(flux, 0, f.vmin, f.vmax))


# refusals that only a direct call reaches (the harness refuses such input
# first), each with its text
@pytest.mark.parametrize("call, msg", [
    pytest.param(lambda f, flux: step(f, flux, 0.01, 1.0),
                 "a 1-component flux on a 2-dimensional grid", id="step-component-count"),
    # a flux affine on the range: the stepper's plan refuses it, as no carried sweep checks it
    pytest.param(lambda f, flux: advance(PiecewiseFlux(B1, [-2, 2], [[["0", "1/2"]]]), 0.9,
                                         math.inf, f),
                 "a 1-component flux on a 2-dimensional grid", id="carried-advance-component-count"),
    pytest.param(lambda f, flux: entropy_residual(f, f, flux, 0.01, 0.0, 1.0),
                 "a 1-component flux on a 2-dimensional grid",
                 id="entropy-residual-component-count"),
    pytest.param(lambda f, flux: fourier_coeff(f, (1,)), "kbar length must match grid dimension",
                 id="fourier-coeff-kbar-length"),
    pytest.param(lambda f, flux: CellField(f.grid, np.zeros(4)),
                 "values shape (4,) != grid (4, 4)", id="cell-field-shape"),
])
def test_direct_call_refusals(call, msg):
    f = CellField(TorusGrid((4, 4)), np.zeros((4, 4)))
    with pytest.raises(ValueError) as e:
        call(f, burgers_1d())
    assert str(e.value) == msg


def test_step_refuses_a_dt_that_is_not_finite():
    g = TorusGrid((4,))
    flux = burgers_1d()
    # phi' vanishes on the range: the alphas are 0, every dt passes the
    # cap and the Courant number is 0 * inf = NaN
    with pytest.raises(CflError):
        advance(flux, 0.45, math.inf, CellField(g, np.zeros(4)))
    with pytest.raises(CflError):
        step(CellField(g, np.linspace(-1, 1, 4)), flux, math.nan, 1.0)


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
    """f <= g cellwise is preserved when both advance with a shared alpha."""
    rng = np.random.default_rng(seed)
    g = TorusGrid((32,))
    lo = rng.uniform(-1, 0, 32)
    hi = lo + rng.uniform(0, 1, 32)
    fa, fb = CellField(g, lo), CellField(g, hi)
    flux = burgers_1d()
    alpha = lip_bound(flux, 0, min(fa.vmin, fb.vmin), max(fa.vmax, fb.vmax))
    dt = 0.45 / (alpha / g.h[0])
    fa2 = step(fa, flux, dt, alpha=alpha)
    fb2 = step(fb, flux, dt, alpha=alpha)
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
        alpha = lip_bound(flux, 0, min(fa.vmin, fb.vmin), max(fa.vmax, fb.vmax))
        dt = 0.45 / (alpha / g.h[0])
        fa = step(fa, flux, dt, alpha=alpha)
        fb = step(fb, flux, dt, alpha=alpha)
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
    alpha = lip_bound(flux, 0, f.vmin, f.vmax)
    dt = 0.001
    f2 = step(f, flux, dt, alpha)
    assert entropy_residual(f, f2, flux, dt, 0.1, alpha) <= 1e-15


def test_entropy_residual_riemann_sweep():
    g = TorusGrid((128,))
    vals = np.where(np.arange(128) < 64, 1.0, -1.0)
    f = CellField(g, vals)
    flux = burgers_1d()
    for _ in range(5):
        alpha = lip_bound(flux, 0, f.vmin, f.vmax)
        dt = cfl_dt(f, 0.45, (alpha,))
        f2 = step(f, flux, dt, alpha)
        for k in np.linspace(-1, 1, 20):
            assert entropy_residual(f, f2, flux, dt, float(k), alpha) <= 1e-12
        f = f2


def test_entropy_residual_k_below_min_telescopes():
    rng = np.random.default_rng(11)
    g = TorusGrid((64,))
    f = CellField(g, rng.uniform(0.2, 0.8, 64))
    flux = burgers_1d()
    alpha = lip_bound(flux, 0, f.vmin, f.vmax)
    dt = cfl_dt(f, 0.45, (alpha,))
    f2 = step(f, flux, dt, alpha)
    k = -1.0  # below the field minimum
    assert entropy_residual(f, f2, flux, dt, k, alpha) <= 1e-12
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
    # every alpha is 0: each step runs to the next record time at Courant number 0
    assert traj.stepping == {"steps": 2, "dt_min": 0.5, "dt_max": 0.5, "courant_max": 0.0}


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
    real = solver_mod._Stepper.advance
    monkeypatch.setattr(solver_mod._Stepper, "advance", lambda *a: calls.append(1) or real(*a))
    full = run(v0, burgers_1d(), TorusGrid((64,)), SolverConfig(t_end=0.5))
    # Burgers carries no bound: one ``advance`` per step
    n = len(calls)
    assert 10 < n < 100 and n == full.stepping["steps"]
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
    # the run's own step count k lets it finish, k - 1 does not, at the
    # first step, before any batch of full steps on its bound
    transport = PiecewiseFlux(B1, [-2, 2], [[["0", "1"]]])
    monkeypatch.setattr(solver_mod, "MAX_STEPS", 10 ** 6)
    k = run(v0, transport, TorusGrid((64,)), SolverConfig(t_end=0.5)).stepping["steps"]
    assert k > 10
    monkeypatch.setattr(solver_mod, "MAX_STEPS", k)
    assert run(v0, transport, TorusGrid((64,)), SolverConfig(t_end=0.5)).stepping["steps"] == k
    monkeypatch.setattr(solver_mod, "MAX_STEPS", k - 1)
    calls.clear()
    with pytest.raises(CflError) as refusal:
        run(v0, transport, TorusGrid((64,)), SolverConfig(t_end=0.5))
    assert str(refusal.value) == (f"step budget: t=0 to t_end=0.5 at dt={0.9 / 64:.4g} takes "
                                  f"more than the {k - 1} steps left of the {k - 1} a run may take")
    assert len(calls) == 1


def test_a_batch_of_full_steps_tests_the_budget_at_every_step(monkeypatch):
    # dt = 0.8 / 8 = 0.1: t sums to 0.7999999999999999 after eight steps,
    # so the estimate ceil((1 - t) / 0.1) of the ninth reads 3 where the
    # first eight read 10 - s; a budget of 10 refuses the ninth step, in
    # the batch of full steps after the first, as a run that takes each
    # step in its own call does
    transport = PiecewiseFlux(B1, [-2, 2], [[["0", "1"]]])
    v0 = TorusPoly(1, {(0,): 0.3, (1,): -0.25j})
    g = TorusGrid((8,))
    want = ("step budget: t=0.8 to t_end=1 at dt=0.1 takes more than the 2 steps left of "
            "the 10 a run may take")
    assert run(v0, transport, g, SolverConfig(t_end=1.0, cfl=0.8)).stepping["steps"] == 10
    monkeypatch.setattr(solver_mod, "MAX_STEPS", 10)
    for every_step in (False, True):
        with pytest.raises(CflError) as refusal:
            list(evolve(transport, 0.8, g, (v0,), (0.0, 1.0), every_step=every_step))
        assert str(refusal.value) == want
    with pytest.raises(CflError) as refusal:
        run(v0, transport, g, SolverConfig(t_end=1.0, cfl=0.8))
    assert str(refusal.value) == want


def test_run_stops_at_t_end_for_a_record_time_rounded_past_it():
    v0 = TorusPoly(1, {(0,): 0.3, (1,): -0.25j})
    plain = run(v0, burgers_1d(), TorusGrid((64,)), SolverConfig(t_end=0.5))
    late = run(v0, burgers_1d(), TorusGrid((64,)),
               SolverConfig(t_end=0.5, record_times=(0.5 + 9e-13,)))
    assert [r["t"] for r in late.rows] == [0.0, 0.5]
    assert late.rows == plain.rows
    assert late.stepping == plain.stepping


def test_evolve_yields_after_each_step_and_at_each_time():
    v0 = TorusPoly(1, {(0,): 0.3, (1,): -0.25j})
    g = TorusGrid((64,))
    times = (0.0, 0.0, 0.1, 0.1 + 1e-15, 0.3)
    seen = [(t, len(fields), log.steps, log)
            for t, fields, log in evolve(burgers_1d(), 0.45, g, (v0, v0), times)]
    assert all(n == 2 for _, n, _, _ in seen)
    assert all(log is seen[0][3] for *_, log in seen)
    ts = [t for t, *_ in seen]
    assert ts == sorted(ts) and ts[0] == 0.0
    # every time is hit exactly; one already reached yields without a step
    hits = [i for i, t in enumerate(ts) if t in times]
    assert [ts[i] for i in hits] == list(times)
    steps = [s for _, _, s, _ in seen]
    assert steps[:2] == [0, 0]
    assert steps[hits[3]] == steps[hits[2]] and hits[3] == hits[2] + 1
    # every other yield follows exactly one step
    rest = [i for i in range(1, len(seen)) if i not in (1, hits[3])]
    assert all(steps[i] == steps[i - 1] + 1 for i in rest)
    assert seen[-1][3].record() == run(v0, burgers_1d(), g, SolverConfig(
        t_end=0.3, cfl=0.45, record_times=times)).stepping
    # a joint range outside [-2, 2] is refused before the first yield
    outside = TorusPoly(1, {(0,): 1.9, (1,): 0.25j})
    with pytest.raises(ValueError, match="leave the working range"):
        next(evolve(burgers_1d(), 0.45, g, (v0, outside), times))


@pytest.mark.parametrize("shape, held", [((8,), False), ((9,), True), ((9, 6), False),
                                         ((9, 7), True)])
def test_evolve_refuses_a_data_mode_the_grid_does_not_hold(shape, held):
    # on N cells the mode k is held iff 2|k| < N: on 8 cells k = 4 reads k = -4
    m = len(shape)
    v0 = TorusPoly(m, {(0,) * m: 0.2, (4, -3)[:m]: 0.25j})
    g = TorusGrid(shape)
    assert g.holds((4, -3)[:m]) is held
    flux = PiecewiseFlux(B1, [-2, 2], [[["0", "0", "1/2"]] * m])
    loop = evolve(flux, 0.9, g, (v0,), (0.0,))
    if held:
        assert next(loop)[0] == 0.0
    else:
        with pytest.raises(ValueError) as e:
            next(loop)
        k = [-4, 3][:m]  # the pair's first key
        assert str(e.value) == f"data mode {k} needs 2|k_j| < N_j on the grid {list(shape)}"


def test_evolve_caps_dt_and_budgets_only_a_finite_horizon(monkeypatch):
    zero = PiecewiseFlux(B1, [-2, 2], [[["0"]]])
    v0 = TorusPoly(1, {(0,): 0.2, (1,): 0.25j})
    g = TorusGrid((16,))
    # every alpha is 0, so only the cap and the times bound dt
    ts = [t for t, _, _ in evolve(zero, 0.9, g, (v0,), (0.0, 2.5), cap=1.0)]
    assert ts == [0.0, 1.0, 2.0, 2.5]
    monkeypatch.setattr(solver_mod, "MAX_STEPS", 3)
    loop = evolve(burgers_1d(), 0.9, g, (v0,), (0.0, math.inf))
    assert [log.steps for _, (_, _, log) in zip(range(6), loop)] == [0, 1, 2, 3, 4, 5]
    with pytest.raises(CflError, match="the 3 a run may take"):
        list(evolve(burgers_1d(), 0.9, g, (v0,), (0.0, 10.0)))


def test_run_rank_zero_constant():
    traj = run(TorusPoly(0, {(): 0.7}), None, None,
               SolverConfig(t_end=2.0, record_times=(1.0,)))
    assert [r["l1_to_mean"] for r in traj.rows] == [0.0, 0.0, 0.0]
    assert all(r["mass"] == 0.7 for r in traj.rows)
    assert traj.stepping == {"steps": 0, "dt_min": None, "dt_max": None, "courant_max": None}


def test_run_grid_dimension_mismatch():
    v0 = TorusPoly(2, {(0, 0): 0.3, (1, 0): -0.25j})
    with pytest.raises(ValueError) as e:
        run(v0, None, TorusGrid((32,)), SolverConfig(t_end=0.1))
    assert str(e.value) == "a 2-dimensional polynomial on a 1-dimensional grid"


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
        # the pair sum keeps the bits of the sum over every key
        assert same_bits(f.values, reference.cell_average(w.torus_poly(t), g).values)
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



# the wave_1d bench's flux: u/2 on [-1/2, 1/2] and convex quadratics outside
WAVE_FLUX = PiecewiseFlux(B1, ["-2", "-1/2", "1/2", "2"],
                          [[["1/8", "1", "1/2"]], [["0", "1/2"]], [["1/8", "0", "1/2"]]])


def _advance_loop(v0, flux, g, times, cfl):
    """``run``'s rows, fields and stepping from a plain loop over ``solver.advance``."""
    c, vol = v0.mean, g.cell_volume
    f = exact_cell_average(v0, g)
    t, dts, ratios, rows, fields, after = 0.0, [], [], [], [], []
    for target in times:
        while t < target - 1e-14:
            dt_cfl, dt, (f,) = solver_mod.advance(flux, cfl, target - t, f)
            dts.append(dt)
            ratios.append(dt / dt_cfl)
            t += dt
            after.append((t, f))
        t = target
        rows.append({"t": t, "l1_to_mean": vol * float(np.sum(np.abs(f.values - c))),
                     "min": f.vmin, "max": f.vmax, "mass": vol * float(np.sum(f.values))})
        fields.append(f)
    stepping = {"steps": len(dts), "dt_min": min(dts), "dt_max": max(dts),
                "courant_max": cfl * max(ratios)}
    return rows, fields, stepping, after


def test_run_is_a_plain_loop_over_advance():
    # the wave_1d counterexample's run: 512 cells, t_end 5, record times 1-4,
    # and one more record time 5e-15 past the end of a step, which that
    # step reaches within 1e-14, so no step is taken for it
    g = TorusGrid((512,))
    v0 = TorusPoly(1, {(0,): -0.2, (1,): -0.1j})
    times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    *_, after = _advance_loop(v0, WAVE_FLUX, g, times, DEFAULT_CFL)
    t_near, f_near = after[100]
    assert 0.3 < t_near < 1.0
    times.insert(1, t_near + 5e-15)
    cfg = SolverConfig(t_end=5.0, record_times=tuple(times[1:-1]))
    traj = run(v0, WAVE_FLUX, g, cfg)
    rows, fields, stepping, _ = _advance_loop(v0, WAVE_FLUX, g, times, DEFAULT_CFL)
    assert [r["t"] for r in traj.rows] == times
    assert traj.rows == rows
    assert len(traj.fields) == len(fields) == len(times)
    assert all(same_bits(a.values, b.values) for a, b in zip(traj.fields, fields))
    # the near record time holds the field of the step before it
    assert same_bits(traj.fields[1].values, f_near.values)
    assert traj.stepping == stepping
    assert stepping["steps"] > 1000

# --- reference: the unfused step ----------------------------------------------
# np.roll shifts and npoly.polyval on per-piece masked gathers.  The fused
# kernel must reproduce its values exactly: the same bytes, so the same
# signs of zero, wherever they are not NaN.

def _ref_eval_component(flux, j, u):
    # values past the span, in the slack, take the end pieces
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


def _ref_sweep(u, flux, dt, alpha, j):
    face = _ref_face(flux, j, u, alpha)
    return u - (dt * u.shape[j]) * (face - np.roll(face, 1, axis=j))


def _ref_step(flux, dt, *fields):
    """The split step of ``fields``: their sweeps along each axis j in turn.

    Sweep j takes alpha_j over the joint range of the values it reads.
    """
    us = [f.values for f in fields]
    for j in range(fields[0].grid.m):
        lo, hi = min(u.min() for u in us), max(u.max() for u in us)
        alpha = lip_bound(flux, j, lo, hi)
        us = [_ref_sweep(u, flux, dt, alpha, j) for u in us]
    return us


def _ref_entropy_residual(before, after, flux, dt, k, alpha, j):
    """The residual of ``after``, ``before`` swept along axis j with ``alpha``."""
    u, u2 = before.values, after.values
    acc = np.abs(u2 - k) - np.abs(u - k)
    umax, umin = np.maximum(u, k), np.minimum(u, k)
    qface = _ref_face(flux, j, umax, alpha) - _ref_face(flux, j, umin, alpha)
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


def _linear_nd(m):
    """(j+1) u/2 on [-2, 2]: alpha_j = |phi_j'| exactly, so at a Courant number
    of 1 the step is upwind and its weight on the downwind neighbour is 0."""
    return PiecewiseFlux(B1, [-2, 2], [[[0, Fraction(j + 1, 2)] for j in range(m)]])


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
          "slack-above", "slack-below", "signed-zero")


def _field_values(kind, shape, rng):
    """Values of one field kind, and the number of them beyond [-2, 2] and its 1e-12 slack."""
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
    elif kind in ("slack-above", "slack-below"):
        # partly past u_P or u_0 by 5e-13, within the slack: the end pieces
        # are evaluated there as given
        flat[1::6] = 2.0 + 5e-13 if kind == "slack-above" else -2.0 - 5e-13
    return vals, 0


def _assert_refused(f, flux):
    """``step`` refuses the field ``f``, whose values leave [-2, 2] and its slack."""
    alphas = _alphas(flux, -2.0, 2.0)
    with pytest.raises(ValueError, match=r"values \[.*\] leave the working range "
                       r"\[-2\.0, 2\.0\] of the flux"):
        step(f, flux, cfl_dt(f, 0.45, alphas), alphas[0])


# 1D shapes on both sides of the 64 KiB layout bound (8192 cells), where
# the Horner product is a plain x * c below it and a multiply into an
# aligned buffer at it
@pytest.mark.parametrize("shape", [(2,), (64,), (2048,), (8191,), (8192,), (12, 10),
                                   (6, 5, 4), (96, 96), (24, 24, 16)])
@pytest.mark.parametrize("make_flux", [_burgers_nd, _three_piece_nd, _cubic_nd, _padded_nd])
def test_fused_step_matches_reference_bitwise(shape, make_flux):
    flux = make_flux(len(shape))
    g = TorusGrid(shape)
    for kind in FIELDS:
        vals, bad = _field_values(kind, shape, np.random.default_rng(len(shape)))
        f = CellField(g, vals)
        if bad:
            _assert_refused(f, flux)
            continue
        if np.isnan(vals).any():
            # advance refuses a NaN range: the field's sweep along each
            # axis, with the alphas of its range, NaN skipped
            alphas = _alphas(flux, np.nanmin(vals), np.nanmax(vals))
            dt = cfl_dt(f, 0.45, alphas)
            for j in range(g.m):
                assert same_bits(step(f, flux, dt, alphas[j], j).values,
                                 _ref_sweep(vals, flux, dt, alphas[j], j)), kind
            continue
        # advance takes the alpha of the range each sweep reads, as the
        # reference does; dt is capped at unit time, as the contraction run
        # caps it, since two -0.0 cells under Burgers give all alphas 0 and
        # so no CFL cap
        _, dt, (new,), sweeps = advance_with_sweeps(flux, 0.45, 1.0, f)
        assert [j for *_, j in sweeps] == list(range(g.m))
        assert same_bits(new.values, _ref_step(flux, dt, f)[0]), kind
        for before, after, alpha, j in sweeps:
            for k in (-2.0, -1 / 3, 0.1, 2 / 5, 2.0):
                assert entropy_residual(before, after, flux, dt, k, alpha, j) == \
                    _ref_entropy_residual(before, after, flux, dt, k, alpha, j), kind


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


# lifts of a scalar flux: generators over {1} on T^2 and T^3, and those of
# the lifted_nd bench, {1, sqrt2} on T^2 and {1, sqrt2, sqrt3} on T^3
LIFTS = [((12, 10), B1, ([1], [2])), ((96, 96), B1, ([Fraction(1, 2)], [1])),
         ((6, 5, 4), B1, ([1], [2], [Fraction(1, 2)])),
         ((24, 24, 16), B1, ([2], [Fraction(1, 2)], [1])),
         ((96, 96), B2, ([1, 0], [0, 1])),
         ((24, 24, 16), B3, ([1, 0, 0], [0, 1, 0], [0, 0, 1]))]


@pytest.mark.parametrize("shape, basis, gens", LIFTS)
@pytest.mark.parametrize("make_flux", [_burgers_nd, _three_piece_nd])
def test_shared_step_is_monotone(shape, basis, gens, make_flux):
    # two fields share each step, every sweep taking the alpha of their
    # joint range; each sweep evaluates its own lifted component
    # lambda_j.phi, so the step is the reference's bit for bit, and every
    # sweep is monotone
    flux = _lifted(make_flux, basis, *gens)
    g = TorusGrid(shape)
    rng = np.random.default_rng(17)
    fa = CellField(g, rng.uniform(-1.5, 1.5, shape))
    fb = CellField(g, rng.uniform(-1.0, 1.8, shape))
    for _ in range(3):
        _, dt, (fa2, fb2), sweeps = advance_with_sweeps(flux, 0.45, math.inf, fa, fb)
        ref_a, ref_b = _ref_step(flux, dt, fa, fb)
        assert same_bits(fa2.values, ref_a) and same_bits(fb2.values, ref_b)
        for f, f2 in ((fa, fa2), (fb, fb2)):
            assert f2.mean() == pytest.approx(f.mean(), rel=1e-13, abs=1e-15)
            assert f2.vmin >= f.vmin - 1e-14
            assert f2.vmax <= f.vmax + 1e-14
        for before, after, alpha, j in sweeps:
            for k in (-1.5, -1 / 3, 0.1, 2 / 5, 1.8):
                assert entropy_residual(before, after, flux, dt, k, alpha, j) <= 1e-12
        assert l1_distance(fa2, fb2) <= l1_distance(fa, fb) + 1e-12
        fa, fb = fa2, fb2


def test_eval_component_matches_polyval_on_breakpoints():
    # u_0 - 5e-13 and u_P + 5e-13 lie in the slack past the span: alone
    # (one Horner pass) and among the others (per-cell coefficients)
    slack = [-2.0 - 5e-13, 2.0 + 5e-13]
    cases = [(np.array([-2.0, -1 / 3, 2 / 5, 2.0, -1.25, 0.0, -0.0, 1e-170, -1e-170,
                        5e-324, 1.75, *slack]), 0)]
    cases += [(np.array([u]), 0) for u in slack]
    # 8191 and 8192 values: the two sides of the layout bound, where the
    # first Horner product is taken two ways
    cases += [_field_values(kind, (n,), np.random.default_rng(7))
              for n in (40, 8191, 8192) for kind in FIELDS]
    for flux in (_three_piece_nd(2), _cubic_nd(2), _padded_nd(2)):
        for u, bad in cases:
            for j in range(2):
                if bad:
                    with pytest.raises(ValueError, match="leave the working range"):
                        flux.eval_component(j, u)
                    continue
                got = flux.eval_component(j, u)
                assert same_bits(got, _ref_eval_component(flux, j, u))
        for j in range(2):
            # the end pieces at the unclipped values, bit for bit
            for u, p in zip(slack, (0, -1)):
                got = flux.eval_component(j, np.array([u]))
                assert same_bits(got, npoly.polyval(np.array([u]), flux._coef_f[p, j]))


@pytest.mark.parametrize("shape", [(64,), (8192,), (12, 10), (6, 5, 4)])
@pytest.mark.parametrize("make_flux", [_burgers_nd, _three_piece_nd, _cubic_nd, _padded_nd])
def test_eval_component_of_a_field_is_that_of_its_values(shape, make_flux):
    # a field hands over the range it holds; a NaN range (the nan kind)
    # falls back to the reductions an array gets
    flux = make_flux(len(shape))
    g = TorusGrid(shape)
    for kind in FIELDS:
        vals, bad = _field_values(kind, shape, np.random.default_rng(len(shape)))
        f = CellField(g, vals)
        assert np.size(f) == f.values.size == math.prod(shape)
        assert math.isnan(f.vmin) == (kind == "nan")
        for j in range(flux.n):
            if not bad:
                assert same_bits(flux.eval_component(j, f), flux.eval_component(j, vals)), kind
                continue
            with pytest.raises(ValueError, match="leave the working range") as from_values:
                flux.eval_component(j, vals)
            with pytest.raises(ValueError) as from_field:
                flux.eval_component(j, f)
            assert str(from_field.value) == str(from_values.value), kind


class _NoRangeReductions:
    """numpy as ``apcl.flux`` sees it, but for fmin and fmax, which raise."""

    def __getattr__(self, name):
        if name in ("fmin", "fmax"):
            raise AssertionError(f"np.{name} reduced a range")
        return getattr(np, name)


@pytest.mark.parametrize("shape, gens", [((64,), ([Fraction(1, 2)],)), ((12, 10), ([1], [2])),
                                         ((6, 5, 4), ([1], [2], [Fraction(1, 2)]))])
def test_a_step_reduces_no_finite_field_again(shape, gens, monkeypatch):
    # the field's vmin/vmax are all the range a sweep needs, for a direct
    # flux and a lift alike: each sweep evaluates its own component
    m = len(shape)
    g = TorusGrid(shape)
    monkeypatch.setattr(flux_mod, "np", _NoRangeReductions())
    for flux in (_burgers_nd(m), _three_piece_nd(m), _lifted(_three_piece_nd, B1, *gens)):
        f = CellField(g, np.random.default_rng(m).uniform(-1.5, 1.5, shape))
        for _ in range(3):
            _, _, (f,) = advance(flux, 0.45, 1.0, f)
    # an array holds no range, so it is reduced, and the proxy catches that
    with pytest.raises(AssertionError, match="np.fmin"):
        flux.eval_component(0, f.values)


def test_traced_eval_component_counts_the_cells_of_a_field():
    # bench/tracer.py as it is: its work for an eval_component call is
    # np.size(u), of the field that step hands over; for a step call it is
    # read from step's first two arguments, the field and the flux
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py")
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    importlib.import_module("apcl.harness")  # the tracer wraps every apcl module
    cases = [(_three_piece_nd(1), TorusGrid((64,))),
             (_lifted(_three_piece_nd, B2, [1, 0], [0, 1]), TorusGrid((12, 10))),
             (_three_piece_nd(3), TorusGrid((6, 5, 4)))]
    for flux, g in cases:
        f = CellField(g, np.random.default_rng(5).uniform(-1.5, 1.5, g.shape))
        tracer = tracer_mod.Tracer()
        with tracer.installed():
            for _ in range(3):
                _, _, (f,) = advance(flux, 0.45, 1.0, f)
        spans = tracer.spans
        # one step span per sweep, so per axis and advance
        steps = [i for i, s in enumerate(spans) if s[0] == "solver.step"]
        evals = [s for s in spans if s[0] == "flux.eval_component"]
        assert len(steps) == 3 * g.m
        for i in steps:
            assert spans[i][5] == (g.shape, flux.npieces, flux._coef_f.shape[2])
        # one span per component maximum: 2m - 1 per advance
        assert sum(s[0] == "flux.lip_bound" for s in spans) == 3 * (2 * g.m - 1)
        # one evaluation per sweep: the sweep's own component
        assert len(evals) == len(steps)
        for s in evals:
            assert s[3] in steps
            assert s[5] == f.size == math.prod(g.shape)


# each neighbour operation of a sweep, op(x_{i+1}, x_i) stored at i (at
# i+1 if upper): the face sum and the jump of _faces, and the upward
# difference of _flux_difference; no sweep takes an upward add
@pytest.mark.parametrize("upper, op", [(False, np.add), (False, np.subtract),
                                       (True, np.subtract)])
def test_neighbours_1d_branch_matches_nd_branch(upper, op):
    # the 1D ends (plain slices and two scalars) and the n-D ones (flat views
    # and two slabs, on the (N, 1) view of the same values) against the
    # operation on the torus, bit for bit; alpha and the scale are 1 and the
    # jump taken off the face sum is +0, each of which keeps every bit
    def offsets(a):
        return solver_mod._offsets(a, 0)

    x, _ = _field_values("signed-zero", (97,), np.random.default_rng(5))
    x[40::9] = np.nan
    for first, last in ((-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0), (np.nan, 1.0), (0.1, 0.2)):
        x[0], x[-1] = first, last
        want = op(x, np.roll(x, 1)) if upper else op(np.roll(x, -1), x)
        for shape in ((x.size,), (x.size, 1)):
            vals, out = x.reshape(shape).copy(), np.full(shape, 7.0)
            if upper:
                got = solver_mod._flux_difference(offsets(vals), 1.0, offsets(out))
            elif op is np.add:
                got = solver_mod._faces(offsets(np.zeros(shape)), offsets(vals), 1.0,
                                        offsets(out))
            else:
                phi = np.full(shape, 7.0)
                solver_mod._faces(offsets(vals), offsets(phi), 1.0, offsets(out))
                got = phi
            assert same_bits(got.reshape(-1), want), (shape, first, last)


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

    # the Horner results (flux) and the grid's face buffer (solver)
    monkeypatch.setattr(flux_mod, "_empty", recorded)
    monkeypatch.setattr(solver_mod, "_empty", recorded)
    # the grid's face buffer, built once for every sweep on it
    face = g._face
    assert len(made) == 1 and made[0] is face and _on_line(face)
    # each sweep evaluates its own component, and those values take the
    # jump, the flux difference and the new values: one array per sweep,
    # the last of them the new field, for a direct flux and a lift alike
    lifted = _lifted(_three_piece_nd, B1, *([k + 1] for k in range(g.m)))
    for flux in (_three_piece_nd(g.m), lifted):
        f = CellField(g, np.random.default_rng(0).uniform(-2.0, 2.0, shape))
        # a plain allocation can land on a line by chance, so look at several
        for _ in range(4):
            made.clear()
            _, _, (f,) = advance(flux, 0.45, math.inf, f)
            assert len(made) == g.m
            assert all(_on_line(a) for a in made)
            assert made[-1] is f.values
            assert g._face is face
            for j in range(g.m):
                # gathered coefficients, then one piece
                assert _on_line(flux.eval_component(j, f.values))
                assert _on_line(flux.eval_component(j, 0.1 * f.values))
    # below the size bound the allocation is a plain np.empty_like
    assert _empty(np.zeros(512)).flags.owndata
    assert not _empty(f.values).flags.owndata


# one grid per shape, for a direct flux and for a lift
SCRATCH_GRIDS = [((4, 4), ([1], [2])), ((96, 96), ([Fraction(1, 2)], [1])),
                 ((24, 24, 16), ([2], [Fraction(1, 2)], [1]))]


@pytest.mark.parametrize("shape, gens", SCRATCH_GRIDS)
@pytest.mark.parametrize("lifted", [False, True])
def test_steps_write_the_grids_scratch_and_return_new_values(shape, gens, lifted):
    flux = _lifted(_three_piece_nd, B1, *gens) if lifted else _three_piece_nd(len(shape))
    g = TorusGrid(shape)
    rng = np.random.default_rng(len(shape))
    fa = CellField(g, rng.uniform(-2.0, 2.0, shape))
    fb = CellField(g, rng.uniform(-1.0, 1.5, shape))
    earlier = [fa.values, fb.values]
    faces = []
    for _ in range(6):
        _, dt, (na, nb), sweeps = advance_with_sweeps(flux, 0.9, 1.0, fa, fb)
        faces.append(g._face)
        ref_a, ref_b = _ref_step(flux, dt, fa, fb)
        assert same_bits(na.values, ref_a) and same_bits(nb.values, ref_b)
        for before, after, alpha, j in sweeps:
            # one field alone gives the bits it gives beside the other
            assert same_bits(after.values, step(before, flux, dt, alpha, j).values)
            for k in (-1 / 3, 0.1, 2 / 5):
                assert entropy_residual(before, after, flux, dt, k, alpha, j) == \
                    _ref_entropy_residual(before, after, flux, dt, k, alpha, j)
            # every sweep returns new values, in no earlier array and not in the face buffer
            assert not any(np.shares_memory(after.values, a) for a in earlier + [g._face])
            earlier.append(after.values)
        fa, fb = na, nb
    # every sweep reused the face buffer the first one built
    assert all(face is faces[0] for face in faces)



@pytest.mark.parametrize("n", [64, 2048])
@pytest.mark.parametrize("make_flux", [_burgers_nd, _three_piece_nd])
def test_1d_fields_and_grids_that_share_scratch_match_the_reference(n, make_flux):
    # a 1D grid keeps its face buffer's views for every sweep on it: two
    # fields stepped jointly, as a contraction pair is, write one buffer by
    # turns, and two equal grids each write their own
    flux = make_flux(1)
    rng = np.random.default_rng(n)
    g = TorusGrid((n,))
    fa = CellField(g, rng.uniform(-1.5, 1.5, n))
    fb = CellField(g, rng.uniform(-1.0, 1.8, n))
    for _ in range(20):
        _, dt, (na, nb) = advance(flux, 0.9, 1.0, fa, fb)
        ref_a, ref_b = _ref_step(flux, dt, fa, fb)
        assert same_bits(na.values, ref_a) and same_bits(nb.values, ref_b)
        fa, fb = na, nb
    # the same data by turns on two equal but distinct grids
    grids = (TorusGrid((n,)), TorusGrid((n,)))
    assert grids[0] == grids[1] and grids[0] is not grids[1]
    vals = rng.uniform(-1.5, 1.5, n)
    fields = [CellField(grid, vals) for grid in grids]
    for _ in range(20):
        for k in (0, 1):
            f = fields[k]
            _, dt, (fields[k],) = advance(flux, 0.9, 1.0, f)
            assert same_bits(fields[k].values, _ref_step(flux, dt, f)[0])
        assert same_bits(fields[0].values, fields[1].values)
    for grid, other in (grids, grids[::-1]):
        face, up, down, *_ = grid._face_offsets[0]
        assert face is grid._face
        assert np.shares_memory(up, face) and np.shares_memory(down, face)
        assert not np.shares_memory(face, other._face)

def test_horner_plans_drop_zero_coefficients():
    # (top, interior coefficients or None where skipped, constant term)
    assert burgers_1d()._plans[0][0] == ((0.5, None, 0.0),)
    assert _cubic_nd(1)._plans[0][0] == ((1.0, None, 1.0, 0.0),)
    assert _padded_nd(1)._plans[0][0][1] == (0.5, 0.0)
    assert PiecewiseFlux(B1, [-1, 1], [[["1/4"]]])._plans[0][0] == ((0.0, 0.25),)
    # a piece's coefficients are read-only 0-d arrays, which no evaluation can write
    top = burgers_1d()._plans[0][0][0][0]
    assert top.shape == () and top.dtype == float and not top.flags.writeable
    # the gathered plan skips a column only where every piece has a zero
    gathered = _padded_nd(1)._plans[0][1]
    assert [c is None for c in gathered] == [False, True, False, False]


def test_run_calls_lip_bound_once_per_step(monkeypatch):
    # each advance bounds every component once, for dt and sweep 0, then
    # component j once more before sweep j >= 1: 2m - 1 maxima a step
    calls = []

    def counted(name, fn, arg):
        def wrapper(*args, **kwargs):
            calls.append((name, args[arg] if arg is not None else None))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solver_mod, "lip_bound", counted("lip_bound", solver_mod.lip_bound, 1))
    monkeypatch.setattr(solver_mod, "step", counted("step", solver_mod.step, 4))
    monkeypatch.setattr(solver_mod._Stepper, "advance",
                        counted("advance", solver_mod._Stepper.advance, None))
    for shape in ((48,), (32, 24), (32, 24, 20)):
        m = len(shape)
        terms = {(0,) * m: 0.3}
        for j, amp in enumerate((-0.25j, 0.1j, 0.15j)[:m]):
            terms[tuple(int(i == j) for i in range(m))] = amp
        calls.clear()
        traj = run(TorusPoly(m, terms), _burgers_nd(m), TorusGrid(shape),
                   SolverConfig(t_end=0.2, record_times=(0.05,)))
        one = [("advance", None)] + [("lip_bound", j) for j in range(m)] + [("step", 0)]
        for j in range(1, m):
            one += [("lip_bound", j), ("step", j)]
        assert traj.stepping["steps"] > 5
        assert calls == one * traj.stepping["steps"]


# --- monotone up to the cap: a Courant number of 1 ----------------------------

MAKE_FLUX = [_burgers_nd, _three_piece_nd, _cubic_nd, _padded_nd, _linear_nd]
ENTROPY_KS = (-1.5, -1 / 3, 0.1, 2 / 5, 1.8)


def _bumped(shape, seed):
    """A random field in [-1.8, 1.5], it with one cell raised by 0.01 to 0.5, another field, the cell."""
    rng = np.random.default_rng(seed)
    g = TorusGrid(shape)
    u, other = rng.uniform(-1.8, 1.5, (2,) + shape)
    raised = u.copy()
    cell = tuple(int(rng.integers(n)) for n in shape)
    raised[cell] += rng.uniform(0.01, 0.5)
    return CellField(g, u), CellField(g, raised), CellField(g, other), cell


def _assert_monotone_advance(make_flux, shape, courant, seed):
    f, up, other, _ = _bumped(shape, seed)
    flux = make_flux(len(shape))
    fields = (f, up, other)
    _, dt, stepped, sweeps = advance_with_sweeps(flux, courant, math.inf, *fields)
    f2, up2, other2 = stepped
    # raising one cell lowers no cell
    assert np.all(up2.values >= f2.values - 1e-13)
    for x, x2 in zip(fields, stepped):
        assert x2.mean() == pytest.approx(x.mean(), rel=1e-13, abs=1e-14)
        assert x.vmin - 1e-13 <= x2.vmin and x2.vmax <= x.vmax + 1e-13
    # every sweep, with the alpha it used
    assert len(sweeps) == len(fields) * len(shape)
    for x, x2, alpha, j in sweeps:
        for k in ENTROPY_KS:
            assert entropy_residual(x, x2, flux, dt, k, alpha, j) <= 1e-12
    assert l1_distance(f2, other2) <= l1_distance(f, other) + 1e-13
    assert l1_distance(up2, other2) <= l1_distance(up, other) + 1e-13


SHAPES_1_TO_3D = st.one_of(
    st.tuples(st.integers(2, 64)),
    st.tuples(st.integers(2, 12), st.integers(2, 12)),
    st.tuples(st.integers(2, 6), st.integers(2, 6), st.integers(2, 6)),
)


@given(shape=SHAPES_1_TO_3D, make_flux=st.sampled_from(MAKE_FLUX),
       courant=st.floats(0.5, 1.0), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_step_is_monotone_up_to_courant_one(shape, make_flux, courant, seed):
    _assert_monotone_advance(make_flux, shape, courant, seed)


@pytest.mark.parametrize("shape", [(64,), (12, 10), (6, 5, 4)])
@pytest.mark.parametrize("make_flux", MAKE_FLUX)
def test_advance_at_courant_one_is_monotone_and_not_refused(shape, make_flux):
    # the limiting sweep's own alpha_j dt/h_j lands an ulp or two from 1
    _assert_monotone_advance(make_flux, shape, 1.0, 5)


@pytest.mark.parametrize("k", [3, 6, 10])
def test_linear_flux_at_courant_one_shifts_one_cell(k):
    # u/2 on 2^k cells: alpha = 1/2 exactly, dt = 2h, and exact upwind
    # moves every value one cell along; a padded alpha would smear it
    f = CellField(TorusGrid((2 ** k,)), np.random.default_rng(k).uniform(-2.0, 2.0, 2 ** k))
    dt_cfl, dt, (f2,) = advance(_linear_nd(1), 1.0, math.inf, f)
    assert dt == dt_cfl == 2.0 / 2 ** k
    np.testing.assert_allclose(f2.values, np.roll(f.values, 1), rtol=0, atol=1e-15)


@pytest.mark.parametrize("shape", [(64,), (12, 10), (6, 5, 4)])
@pytest.mark.parametrize("make_flux", MAKE_FLUX)
def test_beyond_courant_one_the_bumped_cell_goes_down(shape, make_flux):
    # u_i's weight in its own update along axis j is 1 - C_j: at C_j = 1.05
    # the sweep (the reference, which refuses nothing) lowers the cell it
    # was raised in
    f, up, _, cell = _bumped(shape, 5)
    flux = make_flux(len(shape))
    for j, h in enumerate(f.grid.h):
        a = lip_bound(flux, j, f.vmin, up.vmax)
        dt = 1.05 * h / a
        assert _ref_sweep(up.values, flux, dt, a, j)[cell] < \
            _ref_sweep(f.values, flux, dt, a, j)[cell]
        with pytest.raises(CflError):
            step(up, flux, dt, a, j)
        # the refusal allows rounding only
        with pytest.raises(CflError):
            step(up, flux, (1 + 1e-10) * h / a, a, j)


# --- the carried bound of a flux affine on the range --------------------------
# a run's stepper reduces the range and bounds the alphas at the step that
# finds every component affine on one piece holding it, and keeps that bound
# for the run; later steps read neither, with every bit unchanged

def _wave(m, basis=B1):
    """``WAVE_FLUX`` over ``basis`` (m = 1): u/2 on [-1/2, 1/2], quadratics outside."""
    return PiecewiseFlux(basis, ["-2", "-1/2", "1/2", "2"],
                         [[["1/8", "1", "1/2"]], [["0", "1/2"]], [["1/8", "0", "1/2"]]])


# 3 - u/3 on [0, 4] and a quadratic on [-4, 0]: an affine piece with a
# constant term and a negative slope
SHIFTED_FLUX = PiecewiseFlux(B1, ["-4", "0", "4"], [[["3", "-1/3", "1/4"]], [["3", "-1/3"]]])


def _reducing_advance(flux, cfl, t_remaining, *fields):
    """``advance`` as a loop that reduces every field's range on every step.

    alpha_j over the joint range of the values sweep j reads, each field
    swept as a fresh ``CellField`` of its values, which carries no bound.
    """
    def joint(fs):
        return min(float(f.values.min()) for f in fs), max(float(f.values.max()) for f in fs)

    alphas = _alphas(flux, *joint(fields))
    dt_cfl = cfl_dt(fields[0], cfl, alphas)
    dt = min(dt_cfl, t_remaining)
    for j in range(flux.n):
        alpha = lip_bound(flux, j, *joint(fields)) if j else alphas[0]
        fields = [step(CellField(f.grid, f.values), flux, dt, alpha, j) for f in fields]
    return dt_cfl, dt, fields


def _sine(shape, mid, amp, seed):
    """mid + amp times a random smooth field of sup norm at most 1."""
    rng = np.random.default_rng(seed)
    w = np.zeros(shape)
    for j, n in enumerate(shape):
        x = (np.arange(n) + 0.5) / n
        w = w + np.sin(2 * np.pi * (x + rng.uniform())).reshape([-1 if i == j else 1
                                                                 for i in range(len(shape))])
    return mid + amp * w / len(shape)


def _near_end(shape, at, cells=1):
    """A field inside the wave flux's middle piece but for its first ``cells`` cells, set to ``at``."""
    u = _sine(shape, 0.0, 0.2, 3)
    u.reshape(-1)[:cells] = at
    return u


# (flux, the fields' values, cfl, the least count of steps, at the start,
# that carry no bound: 0 where every step carries one); the drift margin
# delta of the wave flux's middle piece on a range reaching 1/2 is
# 2 MAX_STEPS 2^-47 (1/2) = 7.1e-9
CARRY_CASES = [
    pytest.param(WAVE_FLUX, [_sine((128,), -0.05, 0.2, 1)], DEFAULT_CFL, 0, id="wave-1d"),
    pytest.param(WAVE_FLUX, [_sine((64,), 0.1, 0.3, 2)], 1.0, 0, id="wave-1d-cfl-1"),
    pytest.param(SHIFTED_FLUX, [_sine((96,), 2.0, 1.5, 3)], DEFAULT_CFL, 0, id="shifted-1d"),
    pytest.param(WAVE_FLUX, [_sine((64,), -0.05, 0.2, 4), _sine((64,), 0.1, 0.25, 5)],
                 DEFAULT_CFL, 0, id="two-fields"),
    pytest.param(_lifted(_wave, B2, [1, 0], [0, 1]), [_sine((24, 20), 0.0, 0.3, 6)],
                 DEFAULT_CFL, 0, id="lift-t2"),
    pytest.param(_lifted(_wave, B1, [1], [2], [Fraction(1, 2)]),
                 [_sine((8, 6, 5), 0.1, 0.2, 7), _sine((8, 6, 5), -0.1, 0.2, 8)],
                 DEFAULT_CFL, 0, id="lift-t3-two-fields"),
    # one cell within delta of the breakpoint 1/2, until the sweeps lower it
    pytest.param(WAVE_FLUX, [_near_end((128,), 0.5 - 2e-9)], DEFAULT_CFL, 1,
                 id="within-delta-of-a-breakpoint"),
    pytest.param(WAVE_FLUX, [_near_end((128,), 0.5 - 1e-8)], DEFAULT_CFL, 0,
                 id="beyond-delta-of-a-breakpoint"),
    pytest.param(_lifted(_wave, B2, [1, 0], [0, 1]), [_near_end((24, 20), -0.5 + 2e-9)],
                 DEFAULT_CFL, 1, id="lift-t2-within-delta"),
    # 16 cells at the span's end -1/4, which the upwind sweeps keep there
    # for a few steps
    pytest.param(PiecewiseFlux(B1, ["-1/4", "1/2"], [[["0", "1/2"]]]),
                 [_near_end((64,), -0.25, 16)], DEFAULT_CFL, 5, id="at-the-span-end"),
]


def _joint_range_of(arrays):
    return min(float(a.min()) for a in arrays), max(float(a.max()) for a in arrays)


def _stepper(flux, cfl, *values):
    """A run's stepper of fields of ``values`` on one grid, before its first step."""
    g = TorusGrid(values[0].shape)
    return solver_mod._Stepper(flux, cfl, g, [CellField(g, v) for v in values])


@pytest.mark.parametrize("flux, values, cfl, plain", CARRY_CASES)
def test_affine_advance_matches_a_loop_that_reduces_every_step(flux, values, cfl, plain):
    stepper = _stepper(flux, cfl, *values)
    ref = [CellField(stepper.grid, v) for v in values]
    carries, bound = [], None
    for _ in range(60):
        before = [r.values for r in ref]
        dt_cfl, dt = stepper.advance(math.inf)
        dt_cfl2, dt2, ref = _reducing_advance(flux, cfl, math.inf, *ref)
        assert (dt_cfl, dt) == (dt_cfl2, dt2)
        assert all(same_bits(f.values, r.values) for f, r in zip(stepper.fields, ref))
        # one bound per run: the stepper keeps the one its first carried step found
        assert bound is None or stepper.bound is bound
        bound = stepper.bound
        carries.append(bound is not None)
        if bound is None:
            continue
        if carries.count(True) == 1:
            # it holds the alphas of the range at that step's start
            assert bound.alphas == _alphas(flux, *_joint_range_of(before))
        # the bound holds every field, and its range still reads exactly
        for f in stepper.fields:
            assert (f.vmin, f.vmax) == (f.values.min(), f.values.max())
            assert bound.lo <= f.vmin <= f.vmax <= bound.hi
    assert carries == sorted(carries) and carries[-1]
    assert carries.count(False) >= plain and (carries.count(False) == 0) == (plain == 0)


def _collect(flux, cfl, grid, data, times, every_step):
    """What ``evolve`` yields: (t, the fields' values, each field's range, the log's record)."""
    return [(t, [f.values.copy() for f in fs], [(f.vmin, f.vmax) for f in fs], log.record())
            for t, fs, log in evolve(flux, cfl, grid, data, times, every_step=every_step)]


# (flux, grid, data): the wave flux's middle piece in 1D and its lift on T^2
AFFINE_RUNS = [
    pytest.param(WAVE_FLUX, TorusGrid((256,)), [TorusPoly(1, {(0,): -0.05, (1,): -0.1j})],
                 id="wave-1d"),
    pytest.param(_lifted(_wave, B2, [1, 0], [0, 1]), TorusGrid((32, 24)),
                 [TorusPoly(2, {(0, 0): 0.05, (1, 0): -0.1j, (0, 1): 0.08j})], id="lift-t2"),
    pytest.param(WAVE_FLUX, TorusGrid((128,)), [TorusPoly(1, {(0,): -0.05, (1,): -0.1j}),
                                                TorusPoly(1, {(0,): 0.1, (2,): 0.05 + 0.1j})],
                 id="two-fields"),
]


@pytest.mark.parametrize("flux, grid, data", AFFINE_RUNS)
def test_affine_runs_match_runs_that_reduce_every_step(flux, grid, data, monkeypatch):
    # the same runs with no bound carried, so that every step reduces the
    # range of every field and bounds every alpha again, as before
    stepper = solver_mod._Stepper(flux, DEFAULT_CFL, grid,
                                  [exact_cell_average(p, grid) for p in data])
    stepper.advance(math.inf)
    assert stepper.bound is not None
    cfg = SolverConfig(t_end=1.0, record_times=(0.25, 0.5))
    runs = []
    for carry in (solver_mod._carry, lambda *args: None):
        monkeypatch.setattr(solver_mod, "_carry", carry)
        got = {"evolve": _collect(flux, DEFAULT_CFL, grid, data, (0.0, 0.3, 0.6), True),
               "batched": _collect(flux, DEFAULT_CFL, grid, data, (0.0, 0.3, 0.6), False)}
        if len(data) == 1:
            traj = run(data[0], flux, grid, cfg)
            got["run"] = (traj.rows, [f.values for f in traj.fields], traj.stepping)
        runs.append(got)
    carried, reduced = runs
    for (t, values, ranges, log), (t2, values2, ranges2, log2) in zip(carried["evolve"],
                                                                   reduced["evolve"]):
        assert (t, ranges, log) == (t2, ranges2, log2)
        assert all(same_bits(a, b) for a, b in zip(values, values2))
    assert len(carried["evolve"]) == len(reduced["evolve"]) > 10
    for (t, values, ranges, log), (t2, values2, ranges2, log2) in zip(carried["batched"],
                                                                   reduced["batched"]):
        assert (t, ranges, log) == (t2, ranges2, log2)
        assert all(same_bits(a, b) for a, b in zip(values, values2))
    assert len(carried["batched"]) == len(reduced["batched"]) == 3
    if "run" in carried:
        (rows, fields, stepping), (rows2, fields2, stepping2) = carried["run"], reduced["run"]
        assert (rows, stepping) == (rows2, stepping2)
        assert all(same_bits(a, b) for a, b in zip(fields, fields2))


def _one_step_per_call(flux, cfl, grid, data, times):
    """``_collect``'s yields at ``times`` of a run that takes each step in its own ``advance`` call."""
    stepper = solver_mod._Stepper(flux, cfl, grid, [exact_cell_average(p, grid) for p in data])
    t, out = 0.0, []
    for target in times:
        while t < target - 1e-14:
            dt_cfl, dt = stepper.advance(target - t)
            stepper.add(dt_cfl, dt)
            t += dt
        t = target
        out.append((t, [f.values.copy() for f in stepper.fields],
                    [(f.vmin, f.vmax) for f in stepper.fields], stepper.record()))
    return out


# (flux, grid, cfl, data): record times 0.3, 0.55 and 1 cut a step short
# on every grid, and at cfl 1 the full steps run at the cap
BATCHED_RUNS = [
    pytest.param(WAVE_FLUX, TorusGrid((128,)), DEFAULT_CFL,
                 [TorusPoly(1, {(0,): -0.05, (1,): -0.1j})], id="wave-1d"),
    pytest.param(WAVE_FLUX, TorusGrid((128,)), 1.0,
                 [TorusPoly(1, {(0,): 0.1, (1,): 0.15 - 0.1j})], id="wave-1d-cfl-1"),
    pytest.param(WAVE_FLUX, TorusGrid((96,)), DEFAULT_CFL,
                 [TorusPoly(1, {(0,): -0.05, (1,): -0.1j}),
                  TorusPoly(1, {(0,): 0.1, (2,): 0.05 + 0.1j})], id="two-fields"),
    pytest.param(_lifted(_wave, B2, [1, 0], [0, 1]), TorusGrid((32, 24)), DEFAULT_CFL,
                 [TorusPoly(2, {(0, 0): 0.05, (1, 0): -0.1j, (0, 1): 0.08j})], id="lift-t2"),
    pytest.param(_lifted(_wave, B1, [1], [2], [Fraction(1, 2)]), TorusGrid((16, 12, 10)), 1.0,
                 [TorusPoly(3, {(0, 0, 0): -0.05, (1, 0, 0): 0.1j, (0, 1, 1): 0.05 - 0.05j})],
                 id="lift-t3-cfl-1"),
]


@pytest.mark.parametrize("flux, grid, cfl, data", BATCHED_RUNS)
def test_batched_runs_match_runs_that_take_one_step_per_call(flux, grid, cfl, data,
                                                             monkeypatch):
    # a run that yields only at its times takes the full steps of each
    # record interval in one batch; every value, range, row and log entry
    # keeps the bits of the same run taken one ``advance`` at a time
    times = (0.0, 0.3, 0.55, 1.0)
    stepwise = _one_step_per_call(flux, cfl, grid, data, times)
    batches = []
    real_full = solver_mod._Stepper.full_steps
    monkeypatch.setattr(solver_mod._Stepper, "full_steps",
                        lambda stepper, k: batches.append(k) or real_full(stepper, k))
    with recorded_sweeps() as sweeps:
        batched = _collect(flux, cfl, grid, data, times, False)
    assert len(batches) == len(times) - 1 and min(batches) > 1
    # the recorder sees every sweep of every batch
    assert len(sweeps) == batched[-1][3]["steps"] * grid.m * len(data)
    assert len(batched) == len(stepwise) == len(times)
    for (t, values, ranges, log), (t2, values2, ranges2, log2) in zip(batched, stepwise):
        assert (t, ranges, log) == (t2, ranges2, log2)
        assert all(same_bits(a, b) for a, b in zip(values, values2))
    # the steps cut short at the record times are logged too
    assert log["dt_min"] < log["dt_max"] == stepwise[-1][3]["dt_max"]
    if len(data) == 1:
        traj = run(data[0], flux, grid, SolverConfig(t_end=1.0, cfl=cfl,
                                                     record_times=times[1:-1]))
        rows = [solver_mod._observe(t, CellField(grid, v), data[0].mean)
                for t, (v,), _, _ in stepwise]
        assert traj.rows == rows and traj.stepping == stepwise[-1][3]
        assert all(same_bits(f.values, v) for f, (_, (v,), _, _) in zip(traj.fields, stepwise))


class _CountedNumpy:
    """numpy as a module sees it, with each range reduction logged in ``events``."""

    def __init__(self, events):
        self.events = events

    def __getattr__(self, name):
        fn = getattr(np, name)
        if name not in ("minimum", "maximum", "fmin", "fmax"):
            return fn
        events = self.events

        class Counted:
            def __getattr__(self, attr):
                if attr == "reduce":
                    def reduce(*args, **kwargs):
                        events.append(name)
                        return fn.reduce(*args, **kwargs)
                    return reduce
                return getattr(fn, attr)

            def __call__(self, *args, **kwargs):
                return fn(*args, **kwargs)

        return Counted()


def _events_of_a_run(monkeypatch, flux, v0, grid, record_times):
    """The run's (trajectory, events): each stepper call, bound plan, lip_bound, check and range reduction.

    A stepper call is an ``advance`` of one step or a ``full_steps`` batch.
    """
    events = []

    def logged(name, fn):
        def wrapper(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_carry", "lip_bound"):
        monkeypatch.setattr(solver_mod, name, logged(name, getattr(solver_mod, name)))
    for name in ("advance", "full_steps", "check"):
        monkeypatch.setattr(solver_mod._Stepper, name,
                            logged(name, getattr(solver_mod._Stepper, name)))
    monkeypatch.setattr(solver_mod, "np", _CountedNumpy(events))
    monkeypatch.setattr(flux_mod, "np", _CountedNumpy(events))
    traj = run(v0, flux, grid, SolverConfig(t_end=1.0, record_times=record_times))
    monkeypatch.undo()
    return traj, events


@pytest.mark.parametrize("flux, grid, v0", [
    pytest.param(WAVE_FLUX, TorusGrid((128,)), TorusPoly(1, {(0,): -0.05, (1,): -0.1j}),
                 id="wave-1d"),
    pytest.param(_lifted(_wave, B2, [1, 0], [0, 1]), TorusGrid((32, 24)),
                 TorusPoly(2, {(0, 0): 0.05, (1, 0): -0.1j, (0, 1): 0.08j}), id="lift-t2"),
])
def test_an_affine_run_bounds_and_reduces_only_at_its_start_and_record_times(flux, grid, v0,
                                                                              monkeypatch):
    record_times = (0.25, 0.5, 0.75)
    batches = []
    real_full = solver_mod._Stepper.full_steps
    monkeypatch.setattr(solver_mod._Stepper, "full_steps",
                        lambda stepper, k: batches.append(k) or real_full(stepper, k))
    traj, events = _events_of_a_run(monkeypatch, flux, v0, grid, record_times)
    steps = [i for i, e in enumerate(events) if e in ("advance", "full_steps")]
    # the first step plans the bound; then each record interval takes its
    # full steps in one batch and the step cut short at its end alone
    assert events[steps[1]] == "full_steps" and len(batches) == len(record_times) + 1
    assert events.count("advance") + sum(batches) == traj.stepping["steps"] > 15
    # one bound per run: the first step plans it, bounding each component once
    assert events.count("_carry") == 1
    assert [e for e in events[:steps[1]] if e in ("_carry", "lip_bound")] == \
        ["_carry"] + ["lip_bound"] * flux.n
    after = events[steps[1]:]
    assert "lip_bound" not in after
    # after it, a range is reduced only where a record time checks one,
    # once per record time, the end included
    observed = [i for i, e in enumerate(after) if e == "check"]
    assert len(observed) == len(record_times) + 1
    reduced = [i for i, e in enumerate(after) if e in ("minimum", "maximum", "fmin", "fmax")]
    assert reduced == [i + k for i in observed for k in (1, 2)]
    assert [after[i] for i in reduced] == ["minimum", "maximum"] * len(observed)
    for f, row in zip(traj.fields, traj.rows):
        assert (row["min"], row["max"]) == (f.values.min(), f.values.max())


def test_a_burgers_run_reduces_its_range_every_step(monkeypatch):
    # no affine piece: no bound is planned, every advance bounds its one
    # component and every step's new field is reduced, 2m - 1 = 1 maximum a step
    traj, events = _events_of_a_run(monkeypatch, burgers_1d(), TorusPoly(
        1, {(0,): 0.3, (1,): -0.25j}), TorusGrid((64,)), (0.5,))
    steps = traj.stepping["steps"]
    assert events.count("advance") == events.count("lip_bound") == steps > 10
    assert "_carry" not in events and events.count("check") == 3
    # the data's range, then one per step; the record times read those
    assert events.count("minimum") == events.count("maximum") == 1 + steps


def _drift(flux, j, before):
    """The module docstring's per-sweep drift bound for component j on ``before``'s values."""
    c0, c1 = flux._affine_pieces[0][j]
    big = float(np.abs(before.values).max())
    return solver_mod._DRIFT * (big + abs(c0 / c1))


_SLOPES = st.fractions(Fraction(-64), Fraction(64), max_denominator=64).filter(
    lambda c: abs(c) >= Fraction(1, 64))


@given(c0=st.lists(st.one_of(st.just(Fraction(0)), st.fractions(-10 ** 6, 10 ** 6,
                                                                 max_denominator=1000)),
                   min_size=2, max_size=2),
       c1=st.lists(_SLOPES, min_size=2, max_size=2),
       m=st.integers(1, 2), lo=st.floats(-50, 50), width=st.floats(0.0, 50),
       cfl=st.floats(0.5, 1.0), seed=st.integers(0, 2 ** 32 - 1))
# u at cfl 1 on [1, 1.5]: the first sweep's max lands 1 ulp above the max it reads
@example(c0=[Fraction(0)] * 2, c1=[Fraction(1)] * 2, m=1, lo=1.0, width=0.5, cfl=1.0, seed=1)
@settings(max_examples=60, deadline=None)
def test_affine_sweeps_drift_within_the_bound(c0, c1, m, lo, width, cfl, seed):
    # one affine piece on [-2000, 2000], a large constant term allowed:
    # each sweep stays in the range it reads up to the drift bound, and the
    # run's field stays inside the bound its first step carries
    flux = PiecewiseFlux(B1, [-2000, 2000], [[[c0[j], c1[j]] for j in range(m)]])
    shape = (48,) if m == 1 else (12, 10)
    stepper = _stepper(flux, cfl, np.random.default_rng(seed).uniform(lo, lo + width, shape))
    for _ in range(80):
        with recorded_sweeps() as sweeps:
            stepper.advance(math.inf)
        for before, after, _, j in sweeps:
            d = _drift(flux, j, before)
            assert before.vmin - d <= after.vmin and after.vmax <= before.vmax + d
        if stepper.bound is not None:
            (f,) = stepper.fields
            assert stepper.bound.lo <= f.vmin and f.vmax <= stepper.bound.hi


# --- the carried 1D path against the reference step ---------------------------
# a step on the stepper's bound evaluates the bound's plan with no range
# check or piece choice, and takes the bound's 0-d alpha, and its 0-d scale
# for a full step: every bit still that of the np.roll + polyval reference

class _CountedChecks:
    """``flux._check_range``, its calls counted: the checked path makes them, the carried one not."""

    def __init__(self, monkeypatch):
        self.calls = 0
        real = flux_mod._check_range

        def counted(*args):
            self.calls += 1
            return real(*args)

        monkeypatch.setattr(flux_mod, "_check_range", counted)


@pytest.mark.parametrize("flux, values, cfl", [
    # u/2 at cfl 1: alpha = 1/2 exactly, so every sweep is exact upwind
    pytest.param(WAVE_FLUX, [_sine((128,), -0.05, 0.2, 1)], 1.0, id="cfl-1"),
    pytest.param(SHIFTED_FLUX, [_sine((96,), 2.0, 1.5, 3)], DEFAULT_CFL, id="shifted"),
    pytest.param(WAVE_FLUX, [_sine((64,), -0.05, 0.2, 4), _sine((64,), 0.1, 0.25, 5)],
                 DEFAULT_CFL, id="two-fields"),
])
def test_carried_1d_steps_match_the_reference_bitwise(flux, values, cfl, monkeypatch):
    checks = _CountedChecks(monkeypatch)
    stepper = _stepper(flux, cfl, *values)
    bound = None
    for k in range(40):
        # every fifth step is cut short, as the last step before a record time
        # is: its dt is not the bound's, so it takes the float scale
        t_remaining = 0.37 * bound.dt_cfl if bound is not None and k % 5 == 4 else math.inf
        fields = stepper.fields
        checks.calls = 0
        dt_cfl, dt = stepper.advance(t_remaining)
        carried_checks = checks.calls
        stepped = stepper.fields
        assert all(same_bits(f.values, r) for f, r in zip(stepped, _ref_step(flux, dt, *fields)))
        if bound is not None:
            # carried: no range check, the one bound and its dt_cfl, and dt cut short where asked
            assert carried_checks == 0 and stepper.bound is bound and dt_cfl is bound.dt_cfl
            assert (dt == t_remaining) if t_remaining < dt_cfl else (dt is dt_cfl)
        bound = stepper.bound
        assert bound is not None
        if cfl == 1.0 and dt == dt_cfl:
            assert dt_cfl * bound.alphas[0] * stepper.grid.shape[0] == 1.0
            np.testing.assert_allclose(stepped[0].values, np.roll(fields[0].values, 1),
                                       rtol=0, atol=1e-15)


def test_a_direct_step_on_a_carried_field_uses_the_alpha_it_is_handed():
    # a field that a carried step made is a plain field: a direct step
    # takes the alpha and dt it is handed, the bound's or any other
    stepper = _stepper(WAVE_FLUX, DEFAULT_CFL, _sine((128,), 0.0, 0.2, 6))
    stepper.advance(math.inf)
    (f,), bound = stepper.fields, stepper.bound
    assert bound is not None and bound.alphas == (0.5,)
    for dt in (bound.dt_cfl, 0.5 * bound.dt_cfl):
        for alpha in (bound.alphas[0], 0.55, 1.0 / 3.0, float("0.5")):
            got = step(f, WAVE_FLUX, dt, alpha)
            assert same_bits(got.values, _ref_sweep(f.values, WAVE_FLUX, dt, alpha, 0)), alpha
            # its range reads exactly
            assert got.vmax == got.values.max()
    # the CFL cap holds for it too
    with pytest.raises(CflError):
        step(f, WAVE_FLUX, bound.dt_cfl, 2.0)


def test_a_field_carrying_another_fluxs_bound_takes_the_checked_path(monkeypatch):
    # OTHER is WAVE_FLUX's middle piece u/2 alone, on [-1/4, 1/4]: a field
    # that a stepper made on WAVE_FLUX's bound is checked against OTHER's
    # working range, and refused beyond it
    other = PiecewiseFlux(B1, ["-1/4", "1/4"], [[["0", "1/2"]]])
    checks = _CountedChecks(monkeypatch)
    for amp, inside in ((0.2, True), (0.45, False)):
        wave = _stepper(WAVE_FLUX, DEFAULT_CFL, _sine((64,), 0.0, amp, 7))
        wave.advance(math.inf)
        (f,) = wave.fields
        assert wave.bound is not None
        checks.calls = 0
        if not inside:
            with pytest.raises(ValueError, match=r"leave the working range \[-0\.25, 0\.25\]"):
                other.eval_component(0, f)
            with pytest.raises(ValueError, match="leave the working range"):
                step(f, other, 0.5 / 64, 0.5)
            assert checks.calls == 2
            continue
        assert same_bits(other.eval_component(0, f), other.eval_component(0, f.values))
        assert checks.calls == 2
        # a stepper of OTHER makes its own bound, and its steps keep the reference's bits
        stepper = solver_mod._Stepper(other, DEFAULT_CFL, f.grid, [f])
        for _ in range(10):
            fields = stepper.fields
            _, dt = stepper.advance(math.inf)
            assert same_bits(stepper.fields[0].values, _ref_step(other, dt, *fields)[0])
        assert stepper.bound is not None and stepper.bound.lo > -0.25


def _frozen(monkeypatch):
    """Every field's ``values``, and the views a stepper keeps of its values, read-only.

    numpy leaves a view made before its base is set read-only writeable, so
    the views that a stepper keeps of its carried sweeps' values are set
    read-only one by one.
    """
    init, swept = CellField.__init__, CellField._swept.__func__
    carried = solver_mod._Stepper._carried

    def frozen_init(self, grid, values):
        init(self, grid, values)
        self.values.flags.writeable = False

    def frozen_swept(cls, grid, values, reduce):
        field = swept(cls, grid, values, reduce)
        values.flags.writeable = False
        return field

    def frozen_carried(stepper, *args):
        carried(stepper, *args)
        for u in stepper._views or ():
            for a in u[:3]:
                a.flags.writeable = False

    monkeypatch.setattr(CellField, "__init__", frozen_init)
    monkeypatch.setattr(CellField, "_swept", classmethod(frozen_swept))
    monkeypatch.setattr(solver_mod._Stepper, "_carried", frozen_carried)


# the affine runs, and the contraction pair: two Burgers fields, on which
# no bound is carried
FROZEN_RUNS = AFFINE_RUNS + [
    pytest.param(burgers_1d(), TorusGrid((256,)), [TorusPoly(1, {(0,): 0.3, (1,): -0.25j}),
                                                   TorusPoly(1, {(0,): 0.1, (1,): 0.25})],
                 id="contraction-pair"),
]


@pytest.mark.parametrize("flux, grid, data", FROZEN_RUNS)
def test_runs_write_no_field_after_construction(flux, grid, data, monkeypatch):
    # the range rule trusts that no field's values are written after it is
    # built: with every field's values and the stepper's views read-only, a
    # sweep that wrote one (a ping-pong buffer, say) would raise, and the
    # runs keep every bit, whether they yield after each step or, taking
    # full steps in batches on a carried bound, at the times alone
    times = (0.0, 0.3, 0.6)
    for every_step in (True, False):
        plain = _collect(flux, DEFAULT_CFL, grid, data, times, every_step)
        with monkeypatch.context() as patched:
            _frozen(patched)
            frozen = []
            for t, fields, stepper in evolve(flux, DEFAULT_CFL, grid, data, times,
                                             every_step=every_step):
                assert not any(f.values.flags.writeable for f in fields)
                assert not any(a.flags.writeable for u in stepper._views or () for a in u[:3])
                frozen.append((t, [f.values.copy() for f in fields],
                               [(f.vmin, f.vmax) for f in fields], stepper.record()))
        assert (stepper.bound is not None) == bool(flux._affine_pieces)
        assert (stepper._views is not None) == (stepper.bound is not None and grid.m == 1)
        assert len(frozen) == len(plain)
        assert len(frozen) > 10 if every_step else len(frozen) == len(times)
        for (t, values, ranges, log), (t2, values2, ranges2, log2) in zip(frozen, plain):
            assert (t, ranges, log) == (t2, ranges2, log2)
            assert all(same_bits(a, b) for a, b in zip(values, values2))


# --- what a sweep slices, and the Courant numbers a bound holds ---------------
# in 1D the stepper keeps the views of the values its carried sweeps made;
# the next carried sweep reads them and slices only the new flux values

@pytest.mark.parametrize("flux, shape, nfields", [
    pytest.param(WAVE_FLUX, (128,), 1, id="carried-1d"),
    pytest.param(burgers_1d(), (96,), 2, id="burgers-1d"),
    pytest.param(_burgers_nd(2), (12, 10), 2, id="burgers-2d"),
    pytest.param(_linear_nd(3), (6, 5, 4), 2, id="carried-3d"),
])
def test_a_sweep_slices_the_new_flux_values_alone(flux, shape, nfields, monkeypatch):
    # a carried 1D run slices each field's values once, at its first step,
    # and then phi alone; a sweep through ``step``, which is handed a field,
    # slices its values and phi, and in n-D every sweep runs along another
    # axis than the last, so it slices both; every sweep reads views one
    # cell apart along its own axis, the axis of the slice of phi just
    # before its faces; m + 1 steps, each bit for bit the reference's, and
    # then, on a carried bound, m + 1 full steps in one batch
    calls, axes, stepped = [0], [], []
    real_offsets, real_step, real_faces = solver_mod._offsets, solver_mod.step, solver_mod._faces

    def counted(x, j):
        calls[0] += 1
        axes.append(j)
        return real_offsets(x, j)

    def recorded(f, flux, dt, alpha, axis=0):
        stepped.append(axis)
        return real_step(f, flux, dt, alpha, axis)

    def checked(u, phi, alpha, face):
        # up[i] starts prod(shape[j+1:]) elements past x[i] for the sweep's axis j
        s = math.prod(shape[axes[-1] + 1:])
        for x, up, down, *_ in (u, phi, face):
            base = x.__array_interface__["data"][0]
            assert up.__array_interface__["data"][0] - base == 8 * s
            assert down.__array_interface__["data"][0] == base and up.size == x.size - s
        checked.sweeps += 1
        return real_faces(u, phi, alpha, face)

    checked.sweeps = 0
    m = len(shape)
    stepper = _stepper(flux, DEFAULT_CFL, *[_sine(shape, 0.1 * k, 0.3, k) for k in range(nfields)])
    assert len(stepper.grid._face_offsets) == m  # the face buffer's views, made once per grid
    monkeypatch.setattr(solver_mod, "_offsets", counted)
    monkeypatch.setattr(solver_mod, "step", recorded)
    monkeypatch.setattr(solver_mod, "_faces", checked)
    for _ in range(m + 1):
        fields = stepper.fields
        _, dt = stepper.advance(math.inf)
        assert all(same_bits(f.values, r)
                   for f, r in zip(stepper.fields, _ref_step(flux, dt, *fields)))
    carried = bool(flux._affine_pieces)
    assert (stepper.bound is not None) == carried
    sweeps = (m + 1) * m * nfields
    assert checked.sweeps == sweeps and len(stepped) == (0 if carried else sweeps)
    assert calls[0] == (sweeps + nfields if m == 1 and carried else 2 * sweeps)
    if not carried:
        return
    fields, dt = stepper.fields, stepper.bound.dt_cfl
    calls[0] = checked.sweeps = 0
    stepper.full_steps(m + 1)
    assert checked.sweeps == sweeps and not stepped
    assert calls[0] == (sweeps if m == 1 else 2 * sweeps)
    for _ in range(m + 1):
        fields = [CellField(stepper.grid, r) for r in _ref_step(flux, dt, *fields)]
    assert all(same_bits(f.values, r.values) for f, r in zip(stepper.fields, fields))


@pytest.mark.parametrize("flux, shape", [
    pytest.param(WAVE_FLUX, (128,), id="wave-1d"),
    pytest.param(_linear_nd(2), (12, 10), id="linear-2d"),
    pytest.param(_linear_nd(3), (6, 5, 4), id="linear-3d"),
])
def test_a_bound_holds_each_axis_courant_number(flux, shape):
    # the stored number is alpha_j dt_cfl/h_j bit for bit; a step cut short
    # computes its own, so a planted bound whose stored number is past the
    # cap steps when cut short and is refused on a full step
    stepper = _stepper(flux, DEFAULT_CFL, _sine(shape, 0.0, 0.3, 8))
    (f0,) = stepper.fields
    stepper.advance(math.inf)
    bound, g = stepper.bound, stepper.grid
    assert bound is not None
    want = tuple(lip_bound(flux, j, f0.vmin, f0.vmax) * bound.dt_cfl / g.h[j]
                 for j in range(len(shape)))
    assert [c.hex() for c in bound.courants] == [c.hex() for c in want]
    assert [c.hex() for c in bound.courants] == \
        [(a * bound.dt_cfl / h).hex() for a, h in zip(bound.alphas, g.h)]
    planted = bound._replace(courants=(math.nextafter(solver_mod._COURANT_CAP, 2.0),) * len(shape))
    stepper.bound = planted
    (f,) = stepper.fields
    _, dt = stepper.advance(0.37 * bound.dt_cfl)
    assert dt == 0.37 * bound.dt_cfl and stepper.bound is planted
    assert same_bits(stepper.fields[0].values, _ref_step(flux, dt, f)[0])
    with pytest.raises(CflError, match="CFL violation"):
        stepper.advance(math.inf)
    # a direct step stores no number: it computes its own, under the cap
    assert same_bits(step(f, flux, bound.dt_cfl, bound.alphas[0]).values,
                     _ref_sweep(f.values, flux, bound.dt_cfl, bound.alphas[0], 0))
