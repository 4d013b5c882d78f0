"""Dimension lifting, orbit sampling, and cube seminorms."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apcl.flux import (
    PiecewiseFlux,
    affine_on,
    directional,
    lift_flux,
    lip_bound,
    nondegeneracy_check,
)
from apcl.freqlattice import Frequency, FrequencyBasis, group_basis, member_coords
from apcl.lift import CubeMeanReport, cube_seminorm, interp_periodic, lift_problem
from apcl.solver import CellField, TorusGrid, exact_cell_average
from apcl.trigpoly import TorusPoly, TrigPoly, truncate
from bitwise import same_bits

B1 = FrequencyBasis.rational()
B2 = FrequencyBasis.with_sqrt(2)
Z0 = (0.0, 0.0)  # the torus offset of the orbit through the data


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
    assert pb.orbit_mean(w, Z0, 10.0, 4) == pytest.approx(1.25, abs=1e-14)


def test_orbit_mean_cosine_near_zero():
    u0 = quasi_data()
    pb = lift_problem(u0, burgers(B2))
    g = TorusGrid((64, 64))
    y1 = g.centers(0).reshape(-1, 1)
    w = CellField(g, np.broadcast_to(np.cos(2 * np.pi * y1), (64, 64)).copy())
    est = pb.orbit_mean(w, Z0, 200.0, 8)
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
    est = pb.orbit_mean(w, Z0, 200.0, 16)
    assert abs(est - torus_mean) <= 0.02 * max(abs(w.vmin), abs(w.vmax))


def test_bohr_coefficient_probe():
    u0 = quasi_data()
    pb = lift_problem(u0, burgers(B2))
    g = TorusGrid((64, 64))
    v = TorusPoly(2, {(1, 0): 0.25, (0, 1): -0.1j, (0, 0): 0.4})
    w = exact_cell_average(v, g)
    for k in [(1, 0), (0, 1), (0, 0)]:
        a = pb.bohr_coefficient(w, k, Z0, 200.0, 16)
        assert abs(a - v.coeff(k)) <= 0.01
    # absent frequency probes to ~0
    assert abs(pb.bohr_coefficient(w, (2, 2), Z0, 200.0, 16)) <= 0.01


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


# --- oracles: the lift's first formulas ---------------------------------------
# lam from the float shadows of ``gb.frequencies``, and the amplitudes looked
# up by frequency in ``u0.terms``.  The lift must reproduce them bit for bit.

def _ref_lift(u0, gb):
    lam = np.array([f.floats() for f in gb.frequencies], dtype=float)
    terms = {member_coords(f, gb): u0.terms[f] for f in u0.spectrum()}
    return lam, TorusPoly(gb.rank, terms)


def _draw_data(data):
    basis = data.draw(st.sampled_from([B1, B2]))
    n = data.draw(st.integers(1, 2))
    # small coordinates keep the lift's own round-trip check well inside 1e-10
    small = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    amp = st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False)
    terms = {}
    for _ in range(data.draw(st.integers(1, 3))):
        rows = data.draw(st.lists(st.lists(small, min_size=basis.dim, max_size=basis.dim),
                                  min_size=n, max_size=n))
        f = Frequency.of(basis, rows)
        if not f.is_zero and f not in terms and -f not in terms:
            terms[f] = data.draw(amp)
    terms[Frequency.of(basis, [[0] * basis.dim] * n)] = data.draw(st.floats(-1.0, 1.0))
    return TrigPoly(basis, n, terms)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_lift_problem_matches_first_formulas(data):
    u0 = _draw_data(data)
    pb = lift_problem(u0, None)
    if not pb.m:
        return
    lam, v0 = _ref_lift(u0, pb.group)
    assert pb.lam.shape == lam.shape and pb.lam.tobytes() == lam.tobytes()
    assert list(pb.v0.terms) == list(v0.terms)
    assert same_bits(np.array(list(pb.v0.terms.values())), np.array(list(v0.terms.values())))
    assert pb.v0.mean == v0.mean


FLOAT_TABLES = {"_bp_f", "_coef_f", "_dcoef_f"}


def test_exact_layer_builds_no_float_tables():
    u0 = quasi_data()
    # affine on [-2, 0], Burgers on [0, 2]: degenerate, so the decision
    # also reports a witness
    flux = PiecewiseFlux(B2, [-2, 0, 2], [[["0", "1"]], [["0", "1", "1/2"]]])
    gb = group_basis(list(u0.spectrum()))
    verdict = nondegeneracy_check(flux, gb)
    assert not verdict.nondegenerate
    lifted = lift_flux(flux, gb)
    d = directional(flux, verdict.kbar, gb)
    assert affine_on(d, *verdict.interval) is not None
    pb = lift_problem(u0, flux)
    for f in (flux, lifted, d, pb.flux):
        assert not FLOAT_TABLES & set(vars(f))
    # the first numeric call builds them
    pb.flux.eval(0.5)
    lip_bound(pb.flux, -1.0, 1.0)
    assert FLOAT_TABLES <= set(vars(pb.flux))


# --- oracles: the sampler's first formulas -------------------------------------
# np.mod for the wrap, and per-corner `% n_j` gathers with the weights
# multiplied up from ones.  The sampler must reproduce them bit for bit.

def _ref_interp(f, y):
    g = f.grid
    ys = np.atleast_2d(np.asarray(y, dtype=float))
    out = np.zeros(ys.shape[0])
    base, frac = [], []
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


def _ref_lift_points(pb, xs, z):
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    return np.mod(xs @ pb.lam.T + np.mod(np.asarray(z, dtype=float), 1.0), 1.0)


# zeros of both signs, subnormals, the floats next to the integers, and
# points far outside [0, 1)
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** -60, -(2.0 ** -60), 1 - 2.0 ** -53,
         -(1 - 2.0 ** -53), 1.0, -1.0, 0.5, -0.5, 3.75, -3.75, 2.0 ** 52 + 0.5, 1e16, -1e16]


@pytest.mark.parametrize("shape", [(7,), (5, 6), (3, 4, 5)])
def test_interp_periodic_matches_per_corner_oracle(shape):
    rng = np.random.default_rng(len(shape))
    f = CellField(TorusGrid(shape), rng.normal(size=shape))
    m = len(shape)
    pts = [rng.uniform(-3.0, 3.0, (300, m)), rng.uniform(0.0, 1.0, (300, m))]
    # on every axis: each edge value, and the cell faces and centers, where
    # a weight is exactly 0 or 1; the other axes random
    for j, n in enumerate(shape):
        line = EDGES + [i / (2 * n) for i in range(2 * n)]
        p = rng.uniform(-1.0, 2.0, (len(line), m))
        p[:, j] = line
        pts.append(p)
    for p in pts:
        assert same_bits(interp_periodic(f, p), _ref_interp(f, p))
    # a single point, given as a flat vector
    assert same_bits(interp_periodic(f, [-0.0] * m), _ref_interp(f, [-0.0] * m))


def _lifted(rank):
    if rank == 2:
        return lift_problem(quasi_data(), None)
    # n = rank data with one unit frequency per axis: Lambda is the identity
    terms = {Frequency.of(B1, [[int(i == j)] for i in range(rank)]): 0.1j for j in range(rank)}
    return lift_problem(TrigPoly(B1, rank, terms), None)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_lift_points_matches_mod_oracle(rank):
    pb = _lifted(rank)
    assert pb.m == rank
    rng = np.random.default_rng(rank)
    xs = [rng.uniform(-50.0, 50.0, (200, pb.n)), rng.uniform(-1e-3, 1e-3, (50, pb.n))]
    xs.append(np.repeat(np.array(EDGES + [np.inf, -np.inf, np.nan])[:, None], pb.n, axis=1))
    offsets = [(0.0,) * rank, (-0.0,) * rank, (1e16,) * rank, (-1e16,) * rank,
               tuple(rng.uniform(-5.0, 5.0, rank)), tuple(EDGES[3:3 + rank])]
    with np.errstate(invalid="ignore"):
        for x in xs:
            for z in offsets:
                assert same_bits(pb.lift_points(x, z), _ref_lift_points(pb, x, z)), z
