"""Dimension lifting, orbit sampling, and cube seminorms."""

from fractions import Fraction

import numpy as np
import pytest

from apcl.flux import PiecewiseFlux
from apcl.freqlattice import Frequency, FrequencyBasis, group_basis
from apcl.lift import CubeMeanReport, cube_seminorm, interp_periodic, lift_problem
from apcl.solver import CellField, TorusGrid, exact_cell_average
from apcl.trigpoly import TorusPoly, TrigPoly, truncate

B1 = FrequencyBasis.rational()
B2 = FrequencyBasis.with_sqrt(2)


def burgers(basis=B1):
    return PiecewiseFlux(basis, [-2, 2], [[["0", "0", "1/2"]]])


def quasi_data():
    # 0.3 + 0.25 sin 2 pi x + 0.25 sin 2 pi sqrt2 x
    one = Frequency.of(B2, [[1, 0]])
    rt2 = Frequency.of(B2, [[0, 1]])
    zero = Frequency.of(B2, [[0, 0]])
    return TrigPoly(B2, 1, {zero: 0.3, one: 0.25 / 2j, rt2: 0.25 / 2j})


def test_lift_periodic_case():
    u0 = TrigPoly(B1, 1, {Frequency.of(B1, [[0]]): 0.3,
                          Frequency.of(B1, [[1]]): -0.25j})
    pb = lift_problem(u0, burgers())
    assert pb.m == 1
    assert pb.v0.coeff((1,)) == pytest.approx(-0.25j)
    assert pb.v0.mean == pytest.approx(0.3)
    assert pb.flux.eval(0.4) == pytest.approx(burgers().eval(0.4))


def test_lift_quasi_periodic_coordinates():
    u0 = quasi_data()
    pb = lift_problem(u0, burgers(B2))
    assert pb.m == 2
    assert set(pb.v0.terms) == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}
    assert pb.lam == pytest.approx(np.array([[1.0], [np.sqrt(2)]]))
    assert pb.flux.n == 2
    # second lifted component carries the sqrt2 factor
    assert pb.flux.eval(0.8)[1] == pytest.approx(np.sqrt(2) * 0.32)


def test_lift_constant_data():
    u0 = TrigPoly.constant(B2, 1, 0.7)
    pb = lift_problem(u0, burgers(B2))
    assert pb.m == 0
    assert pb.flux is None
    assert pb.mean == pytest.approx(0.7)


def test_lift_dimension_mismatch():
    u0 = TrigPoly(B1, 2, {Frequency.of(B1, [[1], [0]]): 0.5})
    with pytest.raises(ValueError):
        lift_problem(u0, burgers())  # 1-component flux, 2-dimensional data


def test_lift_enlarged_group():
    # data is periodic but declared over the (1, sqrt2) group: m = 2 and
    # the data occupies only the first coordinate
    one = Frequency.of(B2, [[1, 0]])
    rt2 = Frequency.of(B2, [[0, 1]])
    zero = Frequency.of(B2, [[0, 0]])
    u0 = TrigPoly(B2, 1, {zero: 0.3, one: -0.25j})
    pb = lift_problem(u0, burgers(B2), group=group_basis([one, rt2]))
    assert pb.m == 2
    assert set(pb.v0.terms) == {(0, 0), (1, 0), (-1, 0)}


def test_lift_data_only_on_a_shared_group():
    # two data sets on one group: the second lift needs no flux of its own
    u0 = quasi_data()
    gb = group_basis(list(u0.spectrum()))
    with_flux = lift_problem(u0, burgers(B2), group=gb)
    data_only = lift_problem(u0, None, group=gb)
    assert data_only.flux is None and data_only.group is with_flux.group is gb
    assert data_only.v0.terms == with_flux.v0.terms


def test_lift_rejects_data_outside_group():
    one = Frequency.of(B2, [[1, 0]])
    rt2 = Frequency.of(B2, [[0, 1]])
    u0 = TrigPoly(B2, 1, {rt2: -0.25j})
    with pytest.raises(ValueError):
        lift_problem(u0, burgers(B2), group=group_basis([one.scale(2)]))


def test_interp_constant_field():
    g = TorusGrid((8, 8))
    f = CellField(g, np.full((8, 8), 0.42))
    pts = np.random.default_rng(0).uniform(0, 1, (50, 2))
    assert interp_periodic(f, pts) == pytest.approx(np.full(50, 0.42))


def test_interp_exact_at_centers():
    rng = np.random.default_rng(1)
    g = TorusGrid((16,))
    f = CellField(g, rng.normal(size=16))
    centers = g.centers(0).reshape(-1, 1)
    assert interp_periodic(f, centers) == pytest.approx(f.values, abs=1e-14)


def test_interp_second_order_sine():
    g = TorusGrid((64,))
    ys = g.centers(0)
    f = CellField(g, np.sin(2 * np.pi * ys))
    h = 1.0 / 64
    pts = np.array([[0.25]])
    err = abs(interp_periodic(f, pts)[0] - 1.0)
    assert err <= (np.pi * h) ** 2


def test_pullback_z_shift_equivariance():
    u0 = quasi_data()
    pb = lift_problem(u0, burgers(B2))
    g = TorusGrid((32, 32))
    rng = np.random.default_rng(9)
    w = CellField(g, rng.normal(size=(32, 32)))
    x0 = 0.37
    xs = rng.uniform(-2, 2, (20, 1))
    z0 = np.array([0.2, 0.6])
    z_shift = np.mod(z0 + pb.lam @ np.array([x0]), 1.0)
    a = pb.pullback_sample(w, tuple(z_shift), xs)
    b = pb.pullback_sample(w, tuple(z0), xs + x0)
    assert a == pytest.approx(b, abs=1e-12)


def test_orbit_mean_constant_exact():
    u0 = quasi_data()
    pb = lift_problem(u0, burgers(B2))
    g = TorusGrid((16, 16))
    w = CellField(g, np.full((16, 16), 1.25))
    assert pb.orbit_mean(w, pb.z, 10.0, 4) == pytest.approx(1.25, abs=1e-14)


def test_orbit_mean_cosine_near_zero():
    u0 = quasi_data()
    pb = lift_problem(u0, burgers(B2))
    g = TorusGrid((64, 64))
    y1 = g.centers(0).reshape(-1, 1)
    w = CellField(g, np.broadcast_to(np.cos(2 * np.pi * y1), (64, 64)).copy())
    est = pb.orbit_mean(w, pb.z, 200.0, 8)
    assert abs(est) <= 0.02


def test_orbit_mean_matches_torus_integral():
    u0 = quasi_data()
    pb = lift_problem(u0, burgers(B2))
    g = TorusGrid((64, 64))
    rng = np.random.default_rng(21)
    vals = (
        0.3
        + 0.2 * np.cos(2 * np.pi * g.centers(0))[:, None]
        + 0.1 * np.sin(2 * np.pi * g.centers(1))[None, :]
    )
    w = CellField(g, vals)
    torus_mean = w.mean()
    est = pb.orbit_mean(w, pb.z, 200.0, 16)
    assert abs(est - torus_mean) <= 0.02 * max(abs(w.vmin), abs(w.vmax))


def test_bohr_coefficient_probe():
    u0 = quasi_data()
    pb = lift_problem(u0, burgers(B2))
    g = TorusGrid((64, 64))
    v = TorusPoly(2, {(1, 0): 0.25, (0, 1): -0.1j, (0, 0): 0.4})
    w = exact_cell_average(v, g)
    for k in [(1, 0), (0, 1), (0, 0)]:
        a = pb.bohr_coefficient(w, k, pb.z, 200.0, 16)
        assert abs(a - v.coeff(k)) <= 0.01
    # absent frequency probes to ~0
    assert abs(pb.bohr_coefficient(w, (2, 2), pb.z, 200.0, 16)) <= 0.01


def test_cube_seminorm_zero():
    rep = cube_seminorm(lambda xs: np.zeros(len(xs)), 1, 1, [10.0, 20.0], 8)
    assert rep.estimates == (0.0, 0.0)
    assert rep.extrapolated == 0.0


def test_cube_seminorm_abs_sine():
    f = lambda xs: np.sin(2 * np.pi * xs[:, 0])
    rep = cube_seminorm(f, 1, 1, [25.0, 50.0, 100.0], 64)
    assert rep.extrapolated == pytest.approx(2 / np.pi, abs=0.01)


def test_cube_seminorm_p2_parseval():
    # N2 of dropped tail: two-frequency poly minus its truncation
    one = Frequency.of(B2, [[1, 0]])
    rt2 = Frequency.of(B2, [[0, 1]])
    p = TrigPoly(B2, 1, {one: 0.25, rt2: 0.1})
    t = truncate(p, 0.2)  # drops the 0.1 pair
    diff = lambda xs: p.eval(xs) - t.eval(xs)
    rep = cube_seminorm(diff, 1, 2, [50.0, 100.0], 32)
    expect = np.sqrt(2 * 0.1 ** 2)
    assert rep.extrapolated == pytest.approx(expect, abs=0.01)


def test_cube_seminorm_equal_polys_zero():
    one = Frequency.of(B2, [[1, 0]])
    p = TrigPoly(B2, 1, {one: 0.25})
    q = TrigPoly(B2, 1, {one: 0.25})
    diff = lambda xs: p.eval(xs) - q.eval(xs)
    rep = cube_seminorm(diff, 1, 1, [10.0], 16)
    assert rep.extrapolated <= 1e-10


def test_cube_report_validation():
    with pytest.raises(ValueError):
        CubeMeanReport((2.0, 1.0), (0.0, 0.0))
    with pytest.raises(ValueError):
        CubeMeanReport((), ())
    with pytest.raises(ValueError):
        cube_seminorm(lambda xs: np.zeros(len(xs)), 1, 3, [1.0], 4)


def test_lift_round_trip_internal_check():
    # a poly with several incommensurate terms passes the built-in check
    one = Frequency.of(B2, [[1, 0]])
    rt2 = Frequency.of(B2, [[0, 1]])
    mix = Frequency.of(B2, [[1, 1]])
    u0 = TrigPoly(B2, 1, {one: 0.2, rt2: -0.1j, mix: 0.05 + 0.02j})
    pb = lift_problem(u0, burgers(B2))
    assert pb.m == 2
    xs = np.random.default_rng(3).uniform(-2, 2, (50, 1))
    direct = u0.eval(xs)
    via = pb.v0.eval(xs @ pb.lam.T)
    assert via == pytest.approx(direct, abs=1e-10)
