"""Dimension lifting and orbit sampling."""

import contextlib
import random
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import apcl.freqlattice as freqlattice
import apcl.lift as lift_mod
from apcl.flux import (
    PiecewiseFlux,
    affine_on,
    directional,
    lift_flux,
    lip_bound,
    nondegeneracy_check,
)
from apcl.freqlattice import Frequency, FrequencyBasis, group_basis, member_coords
from apcl.lift import LiftedProblem, interp_periodic, lift_problem
from apcl.solver import CellField, TorusGrid, advance, exact_cell_average
from apcl.trigpoly import TorusPoly, TrigPoly
from bitwise import same_bits
import reference

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
    u = np.array([0.4])
    assert pb.flux.eval_component(0, u) == pytest.approx(burgers().eval_component(0, u))


def test_lift_quasi_periodic_coordinates():
    u0 = quasi_data()
    pb = lift_problem(u0, burgers(B2))
    assert pb.m == 2
    assert set(pb.v0.terms) == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}
    assert pb.lam == pytest.approx(np.array([[1.0], [np.sqrt(2)]]))
    assert pb.flux.n == 2
    # second lifted component carries the sqrt2 factor
    assert pb.flux.eval_component(1, np.array([0.8]))[0] == pytest.approx(np.sqrt(2) * 0.32)


def test_lift_constant_data():
    u0 = TrigPoly(B2, 1, {Frequency.of(B2, [[0, 0]]): 0.7})
    pb = lift_problem(u0, burgers(B2))
    assert pb.m == 0
    assert pb.flux is None
    assert pb.mean == pytest.approx(0.7)


def test_lift_dimension_mismatch():
    u0 = TrigPoly(B1, 2, {Frequency.of(B1, [[1], [0]]): 0.5})
    with pytest.raises(ValueError) as e:
        lift_problem(u0, burgers())
    assert str(e.value) == "a 1-component flux for 2-dimensional frequencies"
    # constant data over a given group of another dimension: the zero frequency
    # is solved in the group too, which refuses it, of rank 0 or not
    const = TrigPoly(B1, 1, {Frequency.of(B1, [[0]]): 0.5})
    for gens in ([[["1"], ["0"]]], [[["0"], ["0"]]]):
        group = group_basis([Frequency.of(B1, rows) for rows in gens])
        with pytest.raises(ValueError) as e:
            lift_problem(const, None, group=group)
        assert str(e.value) == "a 1-dimensional frequency among 2-dimensional ones"


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


def test_interp_refuses_points_of_another_width():
    # only a direct call reaches it: the cube's points have the data's width
    f = CellField(TorusGrid((4, 4)), np.zeros((4, 4)))
    with pytest.raises(ValueError) as e:
        interp_periodic(f, np.zeros((3, 1)))
    assert str(e.value) == "points must have 2 coordinates"


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
    a = interp_periodic(w, pb._lift(np.atleast_2d(xs), pb._offset(tuple(z_shift))))
    b = interp_periodic(w, pb._lift(np.atleast_2d(xs + x0), pb._offset(tuple(z0))))
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


def test_lift_refuses_phases_beyond_float_range():
    # one frequency 1e307: 2 pi lambda.x overflows at the check points |x| <= 3
    u0 = TrigPoly(B1, 1, {Frequency.of(B1, [[10 ** 307]]): 0.5})
    with pytest.raises(ValueError, match=re.escape(
            "lift round trip: the phases 2 pi lambda.x at the check points lie beyond "
            "float range; the largest |Lambda| entry is 1e+307")):
        lift_problem(u0, None)
    # 1e306 stays in range, and both sides round the same phases
    pb = lift_problem(TrigPoly(B1, 1, {Frequency.of(B1, [[10 ** 306]]): 0.5}), None)
    assert pb.lam.tolist() == [[1e306]]


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


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_lift_problem_group_and_coordinates_are_group_basis_and_member_coords(data):
    # the group of the pairs' first keys is the group of the whole spectrum,
    # and each first key's coordinates are its member_coords there
    u0 = _draw_data(data)
    pb = lift_problem(u0, None)
    if not u0.spectrum():  # group_basis gives an empty spectrum n = 1, the lift u0.n
        return
    gb = group_basis(u0.spectrum())
    assert (pb.group.basis, pb.group.n, pb.group.rows, pb.group.pivots, pb.group.den) == \
        (gb.basis, gb.n, gb.rows, gb.pivots, gb.den)
    if not pb.m:
        return
    firsts = u0._firsts
    assert len(pb.v0.terms) == 2 * len(firsts) + (len(u0.terms) > 2 * len(firsts))
    for f in firsts:
        assert pb.v0.terms[member_coords(f, gb)] == u0.terms[f]


def _terms_items(p):
    """A torus polynomial's terms in order, each coefficient by its repr (signed zeros)."""
    return [(k, repr(a)) for k, a in p.terms.items()]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_lift_builds_v0_from_the_pairs_as_the_checked_constructor_does(data):
    # v0 comes from u0's +-pairs with no second normalisation: it must be the
    # TorusPoly the public constructor builds from the same (k, a) items, and
    # the reference core's, bit for bit, over u0's own group or a larger one
    basis = data.draw(st.sampled_from([B1, B2]))
    n = data.draw(st.integers(1, 2))
    small = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    coords = st.lists(st.lists(small, min_size=basis.dim, max_size=basis.dim),
                      min_size=n, max_size=n)
    amp = st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False)
    terms = {}
    for _ in range(data.draw(st.integers(1, 4))):
        f = Frequency.of(basis, data.draw(coords))
        if not f.is_zero and f not in terms and -f not in terms:
            terms[f] = data.draw(amp)
    if data.draw(st.booleans()):
        terms[Frequency.of(basis, [[0] * basis.dim] * n)] = data.draw(st.floats(-1.0, 1.0))
    u0 = TrigPoly(basis, n, terms)
    gb = group_basis(u0.spectrum()) if u0.spectrum() else None
    assume(gb is not None and 1 <= gb.rank <= 3)
    group = None
    if data.draw(st.booleans()):
        # larger by a drawn frequency and by index: half the unit in each component
        half = Frequency.of(basis, [[Fraction(1, 2)] + [0] * (basis.dim - 1)] * n)
        group = group_basis([*u0.spectrum(), Frequency.of(basis, data.draw(coords)), half])
        assume(group.rank <= 3)
    try:
        pb = lift_problem(u0, None, group=group)
    except ValueError as e:  # a badly scaled larger group
        assert "lift round trip" in str(e)
        return
    firsts = u0._firsts
    items = list(zip([member_coords(f, pb.group) for f in firsts], u0._pair_amps.tolist()))
    if len(u0.terms) > 2 * len(firsts):
        items.append(((0,) * pb.m, u0.terms[list(u0.spectrum())[len(firsts)]]))
    public = TorusPoly(pb.m, items)
    keys, rows, amps = reference.torus_poly_core(pb.m, items)
    assert pb.v0.spectrum() == public.spectrum() == keys
    assert _terms_items(pb.v0) == _terms_items(public)
    for got in (pb.v0._pair_rows, public._pair_rows):
        assert got.shape == rows.shape and same_bits(got, rows)
    for got in (pb.v0._pair_amps, public._pair_amps):
        assert got.shape == amps.shape and same_bits(got, amps)
    assert repr(pb.v0.mean) == repr(public.mean) and pb.v0.m == public.m == pb.m


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_data_group_solves_the_first_keys_and_refuses_as_every_key_would(data):
    # -lambda lies in a group iff lambda does, and the first keys come first in
    # spectrum order: solving them and the zero refuses the key that solving
    # every key in order refuses first, with its message
    u0 = _draw_data(data)
    basis = u0.basis
    n = data.draw(st.sampled_from([u0.n, u0.n, 3 - u0.n]))
    gens = [Frequency.of(basis, data.draw(st.lists(
        st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=2),
                 min_size=basis.dim, max_size=basis.dim), min_size=n, max_size=n)))
        for _ in range(data.draw(st.integers(1, 3)))]
    if n == u0.n and data.draw(st.booleans()):
        gens += list(u0.spectrum())
    group = group_basis(gens)
    want = None
    for lam in u0.spectrum():
        try:
            lift_mod._data_coords(lam, group)
        except ValueError as e:
            want = str(e)
            break
    if want is not None:
        with pytest.raises(ValueError) as got:
            lift_mod._data_group(u0, group)
        assert str(got.value) == want
        return
    gb, coords = lift_mod._data_group(u0, group)
    firsts = u0._firsts
    assert gb is group and coords == [member_coords(f, group) for f in firsts]
    # over the data's own group: group_basis of the whole spectrum
    own, own_coords = lift_mod._data_group(u0)
    if firsts:
        whole = group_basis(u0.spectrum())
        assert (own.rows, own.pivots, own.den) == (whole.rows, whole.pivots, whole.den)
        assert own_coords == [member_coords(f, whole) for f in firsts]
    else:
        assert (own.rank, own.basis, own.n, own_coords) == (0, u0.basis, u0.n, [])


@contextlib.contextmanager
def _recorded(name):
    """lift_mod.<name>, wrapped to keep each call's (u0, v0, lam) and its result."""
    calls = []
    inner = getattr(lift_mod, name)

    def recording(u0, v0, lam):
        out = inner(u0, v0, lam)
        calls.append(((u0, v0, lam), out))
        return out

    with mock.patch.object(lift_mod, name, recording):
        yield calls


def _recorded_round_trip():
    """lift_mod._round_trip, wrapped to keep each call's (u0, v0, lam) and its (err, scale)."""
    return _recorded("_round_trip")


def _public_round_trip(u0, v0, lam):
    """(err, scale) from two public evals at the check points."""
    xs = lift_mod._round_trip_points(u0.n)
    direct = u0.eval(xs)
    return (float(np.abs(v0.eval(xs @ lam.T) - direct).max()),
            max(1.0, float(np.abs(direct).max())))


def test_round_trip_numbers_on_the_badly_scaled_rank_4_data():
    # the data of test_cli_badly_scaled_lift_is_refused: rank 4 over {1, sqrt2}
    b = FrequencyBasis.with_sqrt(2)
    u0 = TrigPoly(b, 2, [(Frequency.of(b, [["0", "0"], ["13/5", "0"]]), 1),
                         (Frequency.of(b, [["0", "1"], ["1/4", "0"]]), 1),
                         (Frequency.of(b, [["1", "0"], ["0", "0"]]), 0.5),
                         (Frequency.of(b, [["1/3", "1/4"], ["0", "2"]]), 0.25)])
    with _recorded_round_trip() as calls, pytest.raises(
            ValueError, match=re.escape("lift round trip off by 5.224e-10")):
        lift_problem(u0, None)
    (args, (err, scale)), = calls
    assert args[1].m == 4
    assert (err, scale) == _public_round_trip(*args)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_phase_bound_holds_the_public_round_trip_err(data):
    # the bound is at least the err of two public evals, and the lift refuses
    # iff that err misses 1e-10 x scale, whether the bound certified it or not
    u0 = _draw_data(data)
    with _recorded("_phase_bound") as calls:
        try:
            pb, refusal = lift_problem(u0, None), None
        except ValueError as e:
            pb, refusal = None, str(e)
    if pb is not None and not pb.m:
        assert not calls
        return
    (args, bound), = calls
    _, v0, lam = args
    # pair p of v0 is the lift of pair p of u0: the bound pairs them so
    gb = group_basis(u0.spectrum())
    assert v0._pair_rows.tolist() == [list(member_coords(f, gb)) for f in u0._firsts]
    err, scale = _public_round_trip(*args)
    assert bound >= err
    assert (refusal is not None) == (err > 1e-10 * scale)
    if pb is not None:
        assert v0 is pb.v0 and lam is pb.lam


def test_phase_bound_holds_on_amplitudes_of_many_sizes():
    # where one pair's phases differ by an ulp or two and the amplitudes span
    # decades, the evals' rounding outweighs the phase term: the margin covers it
    rnd = random.Random(20260)
    for _ in range(300):
        basis, n = rnd.choice([B1, B2]), rnd.choice([1, 2])
        terms = {}
        for _ in range(rnd.randint(1, 3)):
            f = Frequency.of(basis, [[Fraction(rnd.randint(-4, 4), rnd.randint(1, 2))
                                      for _ in range(basis.dim)] for _ in range(n)])
            if not f.is_zero and f not in terms and -f not in terms:
                terms[f] = complex(rnd.uniform(-0.5, 0.5), rnd.uniform(-0.5, 0.5)) \
                    * 10.0 ** rnd.randint(-4, 0)
        if rnd.random() < 0.5:
            terms[Frequency.of(basis, [[0] * basis.dim] * n)] = rnd.uniform(-1.0, 1.0)
        u0 = TrigPoly(basis, n, terms)
        with _recorded("_phase_bound") as calls:
            pb = lift_problem(u0, None)
        if pb.m:
            (args, bound), = calls
            err, scale = _public_round_trip(*args)
            assert bound >= err


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_member_coords_looks_up_the_build_keys_and_their_negations(data):
    # a group keeps the solves of the keys it was built from: member_coords of
    # them and of their negations is a lookup, and equals the solve
    u0 = _draw_data(data)
    build = list(u0._firsts) if data.draw(st.booleans()) else list(u0.spectrum())
    assume(build)
    gb = group_basis(build)
    small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    others = [Frequency.of(u0.basis, data.draw(st.lists(
        st.lists(small, min_size=u0.basis.dim, max_size=u0.basis.dim),
        min_size=u0.n, max_size=u0.n))) for _ in range(3)]

    def solved(f):
        if gb.den % f.den:
            return None
        ks = freqlattice._solve_int_rows(gb.rows, gb.pivots,
                                         freqlattice._numerators(f, gb.den))
        return None if ks is None else tuple(ks)

    looked_up = [*build, *[-f for f in build]]
    want = [solved(f) for f in looked_up + others]
    with mock.patch.object(freqlattice, "_solve_int_rows",
                           side_effect=freqlattice._solve_int_rows) as solve:
        got = [member_coords(f, gb) for f in looked_up]
        assert not solve.called
        got += [member_coords(f, gb) for f in others]
    assert got == want
    assert all(k is not None for k in want[:len(looked_up)])


def test_lift_is_derived_once_per_flux_and_group():
    u0 = quasi_data()
    spectrum = list(u0.spectrum())
    flux = burgers(B2)
    # the conjugate-closed spectrum in another order: a distinct, equal group
    gb1, gb2 = group_basis(spectrum), group_basis(spectrum[::-1])
    assert gb1 is not gb2 and (gb1.rows, gb1.den) == (gb2.rows, gb2.den)
    lifted = lift_flux(flux, gb1)
    assert lift_flux(flux, gb2) is lifted
    assert lift_problem(u0, flux).flux is lift_flux(flux, group_basis(u0.spectrum()))
    # another group, or another flux with equal coefficients, gets its own lift
    other = group_basis([Frequency.of(B2, [[2, 0]]), Frequency.of(B2, [[0, 1]])])
    assert lift_flux(flux, other) is not lifted
    assert lift_flux(flux, other)._num != lifted._num
    twin = burgers(B2)
    fresh = lift_flux(twin, gb1)
    assert fresh is not lifted
    assert (fresh._num, fresh._den) == (lifted._num, lifted._den)
    # the group is checked before the lookup: equal rows over another basis
    b3 = FrequencyBasis.with_sqrt(3)
    alien = group_basis([Frequency.of(b3, [[1, 0]]), Frequency.of(b3, [[0, 1]])])
    assert (alien.rows, alien.den) == (gb1.rows, gb1.den)
    with pytest.raises(ValueError, match=re.escape("a group over the basis [1, sqrt3] for a "
                                                   "flux over [1, sqrt2]")):
        lift_flux(flux, alien)
    # a step on the memoized lift, float tables built or not, is a step on a fresh one
    field = exact_cell_average(lift_problem(u0, None, group=gb1).v0, TorusGrid((32, 16)))
    want_dt, _, (want,) = advance(fresh, 0.9, np.inf, field)
    for _ in range(2):
        dt, _, (got,) = advance(lift_flux(flux, gb2), 0.9, np.inf, field)
        assert dt == want_dt and same_bits(got.values, want.values)


FLOAT_TABLES = {"_bp_f", "_coef_f", "_inner", "_plans", "_lip_pieces"}


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
    pb.flux.eval_component(0, np.array([0.5]))
    lip_bound(pb.flux, 0, -1.0, 1.0)
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
                got = pb._lift(np.atleast_2d(x), pb._offset(z))
                assert same_bits(got, reference.lift_points(pb, x, z)), z


def _two_frequency_data():
    """n = 2 data with frequencies (1, sqrt2) and (sqrt2, 1), as the lifted_nd bench's second run."""
    xi1 = Frequency.of(B2, [[1, 0], [0, 1]])
    xi2 = Frequency.of(B2, [[0, 1], [1, 0]])
    zero = Frequency.of(B2, [[0, 0], [0, 0]])
    return TrigPoly(B2, 2, {zero: 0.3, xi1: 0.25 / 2j, xi2: 0.2 / 2j})


@pytest.mark.parametrize("z", [(0.3,), (), (0.1, 0.2, 0.3)])
def test_an_offset_of_another_length_than_m_is_refused(z):
    pb = lift_problem(_two_frequency_data(), None)
    assert pb.m == 2
    w = CellField(TorusGrid((8, 8)), np.zeros((8, 8)))
    message = rf"offset z must have m = 2 entries, got {len(z)}"
    with pytest.raises(ValueError, match=message):
        pb._lift(np.atleast_2d([[0.1, 0.2]]), pb._offset(z))
    with pytest.raises(ValueError, match=message):
        pb.orbit_mean(w, z, 4.0, 4)


def test_orbit_mean_checks_its_offset_once(monkeypatch):
    pb = lift_problem(_two_frequency_data(), None)
    calls = []

    def counted(self, z):
        calls.append(z)
        return offset(self, z)

    offset = LiftedProblem._offset
    monkeypatch.setattr(LiftedProblem, "_offset", counted)
    monkeypatch.setattr(lift_mod, "_BLOCK", 64)
    w = CellField(TorusGrid((8, 8)), np.random.default_rng(0).normal(size=(8, 8)))
    # 40^2 points in 25 blocks
    pb.orbit_mean(w, Z0, 10.0, 4)
    assert calls == [Z0]


def _cube_problem(n):
    """A lift of n-dimensional data: quasi_data (n = 1) and the data above (n = 2) on T^2, Lambda = I on T^3."""
    if n == 3:
        return _lifted(3)
    return lift_problem(quasi_data() if n == 1 else _two_frequency_data(), None)


# (n, points per axis, block, None for the module's own): a cube smaller
# than one block, an exact multiple of the block, a ragged last block; with
# small blocks, an n = 3 cube whose last-axis row (12 points) and
# first-axis slab (144 points) are each longer than one block
ORBIT_CUBES = [(1, 5, None), (1, 2 * lift_mod._BLOCK, None), (1, lift_mod._BLOCK + 3, None),
               (2, 50, None), (2, 128, None), (2, 100, None),
               (3, 12, None), (3, 32, None), (3, 25, None),
               (2, 9, 4), (3, 12, 7), (3, 12, 8), (3, 12, 64), (3, 12, 1000)]


@pytest.mark.parametrize("n, per_axis, block", ORBIT_CUBES)
def test_orbit_mean_matches_the_whole_cube_bitwise(n, per_axis, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(lift_mod, "_BLOCK", block)
    pb = _cube_problem(n)
    assert pb.n == n
    rng = np.random.default_rng(per_axis)
    shape = (13, 11, 7)[:pb.m]
    w = CellField(TorusGrid(shape), rng.normal(size=shape))
    for z in [(0.0,) * pb.m, tuple(rng.uniform(-3.0, 3.0, pb.m))]:
        # per_axis / 4 at 4 samples per unit: exactly per_axis points per axis
        got = pb.orbit_mean(w, z, per_axis / 4, 4)
        assert same_bits(np.array([got]), np.array([reference.orbit_mean(pb, w, z, per_axis / 4, 4)]))


def test_orbit_mean_memory_is_a_value_per_point_and_one_block():
    # 2^20 points with n = m = 2: the whole cube at once took 144 bytes a point
    pb = lift_problem(_two_frequency_data(), None)
    w = CellField(TorusGrid((64, 64)), np.random.default_rng(1).normal(size=(64, 64)))
    points = 1 << 20
    tracemalloc.start()
    try:
        pb.orbit_mean(w, Z0, 64.0, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * points + (1 << 20)
