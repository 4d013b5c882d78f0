"""Piecewise flux evaluation, directional fluxes, and the ND decider."""

import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from apcl.flux import (
    PiecewiseFlux,
    affine_on,
    directional,
    lift_flux,
    lip_bound,
    nondegeneracy_check,
)
from apcl.freqlattice import Frequency, FrequencyBasis, _value, group_basis
import reference

B1 = FrequencyBasis.rational()
B2 = FrequencyBasis.with_sqrt(2)


def burgers(basis=B1, lo=-2, hi=2):
    return PiecewiseFlux(basis, [lo, hi], [[["0", "0", "1/2"]]])


def at(f, u):
    """Every component of ``f`` at the one point ``u``."""
    return [float(f.eval_component(k, np.array([float(u)]))[0]) for k in range(f.n)]


def test_eval_burgers():
    f = burgers()
    assert at(f, 1.0) == pytest.approx([0.5])
    assert reference.pieces(f)[0][0][2].coeffs == (Fraction(1, 2),)


def test_eval_two_piece_continuity():
    # u^2 on [-1,0], 0 on [0,1]; continuous at 0
    f = PiecewiseFlux(B1, [-1, 0, 1], [[["0", "0", "1"]], [["0"]]])
    assert at(f, 0.0) == pytest.approx([0.0])
    assert at(f, -0.5) == pytest.approx([0.25])
    assert at(f, 0.5) == pytest.approx([0.0])


def test_construction_rejects_discontinuity():
    with pytest.raises(ValueError):
        PiecewiseFlux(B1, [-1, 0, 1], [[["0", "0", "1"]], [["1"]]])


def test_continuity_jump_in_sqrt2_coordinate_only():
    # equal rational parts at u = 0; the constant terms differ by sqrt2
    msg = 'component 0 jumps at breakpoint 0: ["0", "0"] != ["0", "1"]'
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        PiecewiseFlux(B2, [-1, 0, 1], [[[["0", "0"], ["1", "0"]]],
                                       [[["0", "1"], ["1", "0"]]]])
    PiecewiseFlux(B2, [-1, 0, 1], [[[["0", "1"], ["1", "0"]]],
                                   [[["0", "1"], ["2", "0"]]]])


def test_continuity_at_fractional_breakpoint_across_degrees():
    # u^2 meets a constant or a cubic at u = 1/3, where u^2 = 1/9; either
    # piece may be the longer one.  The refusal names both values at 1/3.
    left = ["0", "0", "1"]
    for right, value in ((["1/9"], None), (["1/10"], "1/10"),
                         (["1/9", "0", "0", "27"], "10/9"), (["0", "0", "0", "3"], None)):
        for pieces, pair in (([[left], [right]], ("1/9", value)),
                             ([[right], [left]], (value, "1/9"))):
            if value is None:
                PiecewiseFlux(B1, [-1, "1/3", 1], pieces)
            else:
                msg = 'component 0 jumps at breakpoint 1/3: ["%s"] != ["%s"]' % pair
                with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
                    PiecewiseFlux(B1, [-1, "1/3", 1], pieces)


def test_eval_vector_components():
    # (u^2/2, u^3/3) at u=-1 -> (0.5, -1/3)
    f = PiecewiseFlux(B1, [-2, 2], [[["0", "0", "1/2"], ["0", "0", "0", "1/3"]]])
    out = at(f, -1.0)
    assert out[0] == pytest.approx(0.5)
    assert out[1] == pytest.approx(-1 / 3)


def test_eval_clamps_outside_range(caplog):
    f = burgers(lo=-1, hi=1)
    import logging

    with caplog.at_level(logging.WARNING):
        v = at(f, 5.0)
    assert v == pytest.approx([0.5])
    assert any("clamp" in r.message for r in caplog.records)


def test_breakpoint_tie_goes_right_except_last():
    # pieces: u on [0,1], affine continuation 1 + 2(u-1) on [1,2]
    f = PiecewiseFlux(B1, [0, 1, 2], [[["0", "1"]], [["-1", "2"]]])
    assert at(f, 1.0) == pytest.approx([1.0])  # continuity makes tie invisible
    assert at(f, 2.0) == pytest.approx([3.0])  # right endpoint uses last piece
    vals = f.eval_component(0, np.array([0.0, 0.5, 1.5, 2.0]))
    assert vals == pytest.approx([0.0, 0.5, 2.0, 3.0])


def test_directional_zero_and_identity():
    f = burgers()
    gb = group_basis([Frequency.of(B1, [[1]])])
    z = directional(f, (0,), gb)
    assert at(z, 0.7) == pytest.approx([0.0])
    d = directional(f, (1,), gb)
    assert at(d, 0.6) == pytest.approx([0.18])


def test_directional_sqrt2_combination():
    # n=2, one basis frequency (1, sqrt2); phi = (u^2/2, u^3/3)
    f = PiecewiseFlux(B2, [-2, 2], [[["0", "0", "1/2"], ["0", "0", "0", "1/3"]]])
    lam = Frequency.of(B2, [[1, 0], [0, 1]])
    gb = group_basis([lam])
    d = directional(f, (1,), gb)
    # u^2/2 + sqrt2 u^3/3 with exact coefficients
    c2, c3 = reference.pieces(d)[0][0][2:]
    assert c2.coeffs == (Fraction(1, 2), Fraction(0))
    assert c3.coeffs == (Fraction(0), Fraction(1, 3))
    u = 0.37
    assert at(d, u)[0] == pytest.approx(u * u / 2 + np.sqrt(2) * u ** 3 / 3)


def test_directional_matches_float_dot():
    rng = np.random.default_rng(1234)
    f = PiecewiseFlux(B2, [-2, 2], [[["0", "0", "1/2"], ["1/3", "1", "0", "1/5"]]])
    lam1 = Frequency.of(B2, [[1, 0], [0, 1]])
    lam2 = Frequency.of(B2, [[0, 1], [2, 0]])
    gb = group_basis([lam1, lam2])
    for _ in range(100):
        k = (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        d = directional(f, k, gb)
        u = float(rng.uniform(-2, 2))
        xi = np.zeros(2)
        for ki, lam in zip(k, gb.frequencies):
            xi += ki * np.array(lam.floats())
        expect = float(xi @ np.asarray(at(f, u)))
        got = at(d, u)[0]
        assert got == pytest.approx(expect, rel=1e-10, abs=1e-10)


def test_lip_bound_examples():
    f = burgers(lo=-1, hi=1)
    (b,) = lip_bound(f, -1.0, 1.0)
    assert 1.0 <= b <= 1.1 + 1e-12
    aff = PiecewiseFlux(B1, [-1, 1], [[["0", "2"]]])
    (b,) = lip_bound(aff, -1.0, 1.0)
    assert 2.0 <= b <= 2.2 + 1e-12
    const = PiecewiseFlux(B1, [-1, 1], [[["3/2"]]])
    assert lip_bound(const, -1.0, 1.0) == (0.0,)


def test_lip_bound_monotone_in_interval():
    f = burgers()
    (small,) = lip_bound(f, -0.5, 0.5)
    (big,) = lip_bound(f, -2.0, 2.0)
    assert small <= big


def _ref_lip_bound(flux, lo, hi):
    """The sampled bound: |phi_k'| on 1024 points of each intersected piece, times 1.1."""
    lo, hi = float(lo), float(hi)
    bp = flux._bp_f
    out = []
    for k in range(flux.n):
        best = 0.0
        for p in range(flux.npieces):
            a, b = max(bp[p], lo), min(bp[p + 1], hi)
            if a > b:
                continue
            us = np.linspace(a, b, 1024) if a < b else np.array([a])
            best = max(best, float(np.abs(npoly.polyval(us, flux._dcoef_f[p, k])).max()))
        out.append(1.1 * best)
    return tuple(out)


def _draw_low_degree_flux(data):
    """A continuous flux with n <= 2 components of degree <= 2 (ragged) on
    1-4 pieces, over {1} or {1, sqrt2}; breakpoints with small denominators,
    so some float shadows are not the exact rationals."""
    basis = data.draw(st.sampled_from([B1, B2]))
    q = basis.dim
    n = data.draw(st.integers(1, 2))
    bps = sorted(data.draw(st.sets(
        st.fractions(min_value=-3, max_value=3, max_denominator=7), min_size=2, max_size=5)))
    small = st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=5)
    pieces = []
    for _ in range(len(bps) - 1):
        comps = []
        for _ in range(n):
            deg = data.draw(st.integers(0, 2))
            comps.append([basis.real(data.draw(st.lists(small, min_size=q, max_size=q)))
                          for _ in range(deg + 1)])
        pieces.append(comps)
    for p in range(1, len(pieces)):
        for k in range(n):
            gap = (_eval_coeffs(pieces[p - 1][k], bps[p], basis)
                   - _eval_coeffs(pieces[p][k], bps[p], basis))
            pieces[p][k][0] = pieces[p][k][0] + gap
    return PiecewiseFlux(basis, bps, pieces)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_lip_bound_equals_sampled_bound_up_to_degree_two(data):
    """phi' affine: the end points decide, so the old 1024-point bound is met bit for bit."""
    flux = _draw_low_degree_flux(data)
    rlo, rhi = flux.urange
    point = st.one_of(st.sampled_from(flux._bp_f.tolist()),
                      st.floats(min_value=rlo, max_value=rhi))
    lo = data.draw(point)
    hi = lo if data.draw(st.booleans()) else data.draw(point)
    lo, hi = min(lo, hi), max(lo, hi)
    assert lip_bound(flux, lo, hi) == _ref_lip_bound(flux, lo, hi)


def test_lip_bound_exact_max_above_degree_two():
    """A cubic and a quartic piece whose |phi'| peaks inside: the bound is
    at least the sampled one and 1.1 max|phi'| on a fine grid."""
    # phi' = 3 - (u+1)^2 on [-2, 0] (peak 3 at u = -1), phi' = u^3 - 3u^2 + 2u
    # on [0, 2] (peaks 2/(3 sqrt3) at u = 1 -+ 1/sqrt3, irrational)
    f = PiecewiseFlux(B1, [-2, 0, 2], [[["-1/3", "2", "-1", "-1/3"]],
                                       [["-1/3", "0", "1", "-1", "1/4"]]])
    for lo, hi in [(-2.0, 2.0), (-1.5, -0.5), (0.0, 2.0), (0.1, 0.3), (0.5, 1.9),
                   (-0.25, 1.0), (-1.0, -1.0)]:
        (got,) = lip_bound(f, lo, hi)
        (ref,) = _ref_lip_bound(f, lo, hi)
        fine = 0.0
        for p in range(f.npieces):
            a, b = max(f._bp_f[p], lo), min(f._bp_f[p + 1], hi)
            if a <= b:
                us = np.linspace(a, b, 100_001)
                fine = max(fine, float(np.abs(npoly.polyval(us, f._dcoef_f[p, 0])).max()))
        assert got >= ref * (1 - 1e-12)
        assert got >= 1.1 * fine * (1 - 1e-12)
    assert lip_bound(f, -2.0, 2.0)[0] == pytest.approx(3.3, rel=1e-15)
    # away from u = 0, where the cubic's phi'(0) = 2 counts too
    assert lip_bound(f, 0.1, 1.9)[0] == pytest.approx(1.1 * 2 / (3 * 3 ** 0.5), rel=1e-12)


def test_nd_burgers_nondegenerate():
    gb = group_basis([Frequency.of(B1, [[1]])])
    v = nondegeneracy_check(burgers(), gb)
    assert v.nondegenerate
    assert v.kbar is None


def test_nd_affine_degenerate():
    f = PiecewiseFlux(B1, [-1, 1], [[["0", "1"]]])
    gb = group_basis([Frequency.of(B1, [[1]])])
    v = nondegeneracy_check(f, gb)
    assert not v.nondegenerate
    assert v.kbar == (1,)
    assert v.interval == (Fraction(-1), Fraction(1))
    assert v.tau == pytest.approx(1.0)
    assert v.c == pytest.approx(0.0)


def test_nd_cancellation_witness():
    # n=2 flux (u^2/2, u^2/2) over the integer lattice: xi=(1,-1) kills
    # the quadratic part
    f = PiecewiseFlux(B1, [-2, 2], [[["0", "0", "1/2"], ["0", "0", "1/2"]]])
    e1 = Frequency.of(B1, [[1], [0]])
    e2 = Frequency.of(B1, [[0], [1]])
    gb = group_basis([e1, e2])
    v = nondegeneracy_check(f, gb)
    assert not v.nondegenerate
    assert v.kbar == (1, -1)
    assert v.tau == pytest.approx(0.0)


def _brute_force_witness(flux, gb, kmax=5):
    """Smallest-|k| witness by direct coefficient inspection, or None."""
    m = gb.rank
    for k in sorted(product(range(-kmax, kmax + 1), repeat=m),
                    key=lambda t: (max(abs(x) for x in t) if t else 0, t)):
        if not any(k):
            continue
        d = directional(flux, k, gb)
        for p, piece in enumerate(reference.pieces(d)):
            coeffs = piece[0]
            if all(c.is_zero for c in coeffs[2:]):
                return k, p
    return None


def _draw_case(data, plant=False, irrational=False):
    """A random continuous flux with n <= 2 components, deg 2, on up to two
    pieces, and a group of m <= 3 generators; with ``plant`` the drawn piece
    is made affine so the flux is degenerate, and with ``irrational`` the
    coefficients over {1, sqrt2} get a drawn sqrt2 coordinate too."""
    q = data.draw(st.integers(1, 2))
    basis = B1 if q == 1 else B2
    n = data.draw(st.integers(1, 2))
    m = data.draw(st.integers(1, 3))
    small = st.fractions(min_value=Fraction(-2), max_value=Fraction(2),
                         max_denominator=3)
    lams = []
    for _ in range(m):
        rows = data.draw(st.lists(
            st.lists(small, min_size=q, max_size=q), min_size=n, max_size=n))
        lams.append(Frequency.of(basis, rows))
    gb = group_basis(lams)
    if gb.rank == 0:
        return None, gb
    npieces = data.draw(st.integers(1, 2))
    bps = [Fraction(-1), Fraction(0), Fraction(1)][: npieces + 1]
    deg = 2
    pieces = []
    for p in range(npieces):
        comps = []
        for _ in range(n):
            if irrational:
                comps.append([basis.real(data.draw(st.lists(small, min_size=q, max_size=q)))
                              for _ in range(deg + 1)])
            else:
                comps.append([reference.rational(basis, data.draw(small))
                              for _ in range(deg + 1)])
        pieces.append(comps)
    if plant:
        for comp in pieces[data.draw(st.integers(0, npieces - 1))]:
            comp[2] = reference.zero(basis)
    # stitch continuity: adjust constant terms of later pieces
    for p in range(1, npieces):
        u = bps[p]
        for kcomp in range(n):
            left = _eval_coeffs(pieces[p - 1][kcomp], u, basis)
            right = _eval_coeffs(pieces[p][kcomp], u, basis)
            pieces[p][kcomp][0] = pieces[p][kcomp][0] + (left - right)
    return PiecewiseFlux(basis, bps, pieces), gb


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_nd_matches_brute_force(data):
    """Random rational instances, m <= 3: decider agrees with enumeration."""
    flux, gb = _draw_case(data)
    if gb.rank == 0:
        return
    verdict = nondegeneracy_check(flux, gb)
    brute = _brute_force_witness(flux, gb, kmax=5)
    if verdict.nondegenerate:
        # nondegenerate is a universal claim, so enumeration finds nothing
        assert brute is None
    else:
        # witness entries can exceed the enumeration window, so verify the
        # reported witness directly instead of demanding a small one
        assert any(verdict.kbar)
        d = directional(flux, verdict.kbar, gb)
        coeffs = reference.pieces(d)[verdict.piece][0]
        assert all(c.is_zero for c in coeffs[2:])
    if brute is not None:
        assert not verdict.nondegenerate


def _eval_coeffs(coeffs, u, basis):
    acc = reference.zero(basis)
    for c in reversed(coeffs):
        acc = acc.scale(u) + c
    return acc


def test_lift_flux_identity_basis():
    f = PiecewiseFlux(B1, [-2, 2], [[["0", "0", "1/2"], ["0", "1"]]])
    e1 = Frequency.of(B1, [[1], [0]])
    e2 = Frequency.of(B1, [[0], [1]])
    gb = group_basis([e1, e2])
    lf = lift_flux(f, gb)
    assert lf.n == 2
    for u in (-1.5, 0.0, 0.7):
        assert at(lf, u) == pytest.approx(at(f, u))


def test_lift_flux_scaling():
    f = burgers()
    gb = group_basis([Frequency.of(B1, [[2]])])
    lf = lift_flux(f, gb)
    assert at(lf, 0.5) == pytest.approx([2 * 0.125])


def test_lift_flux_sqrt2():
    f = PiecewiseFlux(B2, [-2, 2], [[["0", "0", "1/2"], ["0", "0", "0", "1/3"]]])
    lam = Frequency.of(B2, [[1, 0], [0, 1]])
    gb = group_basis([lam])
    lf = lift_flux(f, gb)
    assert lf.n == 1
    u = 0.9
    assert at(lf, u)[0] == pytest.approx(u * u / 2 + np.sqrt(2) * u ** 3 / 3)


def test_lift_then_directional_is_original_directional():
    """k.lifted == (sum k_j lam_j).original, exactly in rational coords."""
    f = PiecewiseFlux(B2, [-2, 2], [[["0", "0", "1/2"], ["1/3", "1", "0", "1/5"]]])
    lam1 = Frequency.of(B2, [[1, 0], [0, 1]])
    lam2 = Frequency.of(B2, [[0, 1], [2, 0]])
    gb = group_basis([lam1, lam2])
    lifted = lift_flux(f, gb)
    # standard unit frequencies for the lifted (m=2) problem
    e1 = Frequency.of(B2, [[1, 0], [0, 0]])
    e2 = Frequency.of(B2, [[0, 0], [1, 0]])
    gb_std = group_basis([e1, e2])
    for k in [(1, 0), (0, 1), (2, -3), (-1, -1)]:
        via_lift = directional(lifted, k, gb_std)
        direct = directional(f, k, gb)
        for (ca,), (cb,) in zip(reference.pieces(via_lift), reference.pieces(direct),
                                strict=True):
            assert len(ca) == len(cb)
            for x, y in zip(ca, cb):
                assert x.coeffs == y.coeffs


def test_affine_on():
    f = PiecewiseFlux(B1, [-1, 0, 1], [[["0", "0", "1"]], [["0"]]])
    d = directional(f, (1,), group_basis([Frequency.of(B1, [[1]])]))
    assert affine_on(d, Fraction(-1), Fraction(0)) is None
    got = affine_on(d, Fraction(0), Fraction(1))
    assert got is not None
    assert got == ((0,), (0,))
    assert affine_on(d, Fraction(-1, 2), Fraction(1, 2)) is None


def test_affine_on_gives_numerators_over_the_flux_den():
    # u^2 + (1/2 + sqrt2) u + 1/3 on [-1, 0], its affine part on [0, 1] and [1, 2]
    line = [["1/3", "0"], ["1/2", "1"]]
    f = PiecewiseFlux(B2, [-1, 0, 1, 2], [[line + [["1", "0"]]], [line], [line]])
    gb = group_basis([Frequency.of(B2, [["1", "0"]])])
    d = directional(f, (3,), gb)
    slope, intercept = affine_on(d, 0, 2)
    assert all(isinstance(x, int) for x in slope + intercept)
    want = (B2.real(["3/2", "3"]), B2.real(["1", "0"]))  # 3 times the affine part
    assert reference.affine(d, 0, 2) == want
    assert _value(slope, d._den, B2.values) == want[0].value
    assert affine_on(d, Fraction(-1, 2), 1) is None


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_directional_is_k_dot_lift(data):
    """xi.phi for xi = sum_j k_j lambda_j equals sum_j k_j (lambda_j.phi), exactly."""
    flux, gb = _draw_case(data)
    if gb.rank == 0:
        return
    kbar = data.draw(st.lists(st.integers(-3, 3), min_size=gb.rank, max_size=gb.rank))
    lifted = lift_flux(flux, gb)
    d = directional(flux, kbar, gb)
    assert d.breakpoints == lifted.breakpoints == flux.breakpoints
    for dpiece, lpiece in zip(reference.pieces(d), reference.pieces(lifted), strict=True):
        want = []
        for deg in range(len(dpiece[0])):
            acc = reference.zero(flux.basis)
            for kj, comp in zip(kbar, lpiece, strict=True):
                acc = acc + comp[deg].scale(kj)
            want.append(acc)
        assert dpiece[0] == tuple(want)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_witness_is_affine_part_of_directional(data):
    """A degenerate verdict's (tau, c) is the affine pair of its directional flux."""
    flux, gb = _draw_case(data, plant=True)
    if gb.rank == 0:
        return
    v = nondegeneracy_check(flux, gb)
    assert not v.nondegenerate  # the planted piece is affine
    slope, intercept = reference.affine(directional(flux, v.kbar, gb), *v.interval)
    assert (v.tau, v.c) == (slope.value, intercept.value)


def _ref_dot(xi, piece, basis):
    """u -> xi.phi(u) on one piece by RealQ products and sums, all degrees."""
    out = []
    for d in range(max(len(comp) for comp in piece)):
        acc = reference.zero(basis)
        for x, comp in zip(xi, piece):
            if d < len(comp):
                acc = acc + x * comp[d]
        out.append(acc)
    return tuple(out)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_lift_and_directional_match_realq_arithmetic(data):
    """The integer contraction equals RealQ sums of lam.coords[k] * comp[d]."""
    flux, gb = _draw_case(data, irrational=True)
    if gb.rank == 0:
        return
    basis = flux.basis
    lifted = lift_flux(flux, gb)
    ref = reference.pieces(flux)
    want = tuple(tuple(_ref_dot(lam.coords, piece, basis) for lam in gb.frequencies)
                 for piece in ref)
    assert reference.pieces(lifted) == want
    kbar = data.draw(st.lists(st.integers(-3, 3), min_size=gb.rank, max_size=gb.rank))
    xi = [reference.zero(basis)] * gb.n
    for kj, lam in zip(kbar, gb.frequencies):
        xi = [a + c.scale(kj) for a, c in zip(xi, lam.coords)]
    d = reference.pieces(directional(flux, kbar, gb))
    assert d == tuple((_ref_dot(xi, piece, basis),) for piece in ref)
    assert np.array_equal(directional(flux, kbar, gb)._coef_f[:, 0],
                          [[c.value for c in piece[0]] for piece in d])


B3 = FrequencyBasis(("1", "sqrt2", "sqrt3"), (1.0, 2 ** 0.5, 3 ** 0.5))


def test_undeclared_product_raises_only_when_both_factors_are_irrational():
    # sqrt3 u^2 against the frequency sqrt2: sqrt2*sqrt3 is not declared
    flux = PiecewiseFlux(B3, [-1, 1], [[["0", "0", ["0", "0", "1"]]]])
    gb = group_basis([Frequency.of(B3, [["0", "1", "0"]])])
    for call in (lambda: lift_flux(flux, gb), lambda: directional(flux, (1,), gb),
                 lambda: nondegeneracy_check(flux, gb)):
        with pytest.raises(ValueError, match="sqrt2\\*sqrt3 is not declared"):
            call()
    # a rational factor on either side needs no product table
    rational = group_basis([Frequency.of(B3, [["2", "0", "0"]])])
    assert reference.pieces(lift_flux(flux, rational))[0][0][2].coeffs == (0, 0, 2)
    plain = PiecewiseFlux(B3, [-1, 1], [[["0", "0", "1"]]])
    assert reference.pieces(lift_flux(plain, gb))[0][0][2].coeffs == (0, 1, 0)
    assert nondegeneracy_check(plain, gb).nondegenerate


def test_fractional_product_table():
    # basis {1, r} with r = 1/sqrt2, so r*r = 1/2: the structure constants
    # have a denominator of their own
    basis = FrequencyBasis(("1", "r"), (1.0, 2 ** -0.5),
                           products={(1, 1): (Fraction(1, 2), Fraction(0))})
    flux = PiecewiseFlux(basis, [-1, 1], [[["1", ["0", "1/3"], ["0", "3"]]]])
    gb = group_basis([Frequency.of(basis, [["1", "2"]])])
    (comp,) = reference.pieces(lift_flux(flux, gb))[0]
    # (1 + 2r) * (1, r/3, 3r) = (1 + 2r, 1/3 + r/3, 3 + 3r)
    third = Fraction(1, 3)
    assert [c.coeffs for c in comp] == [(1, 2), (third, third), (3, 3)]
    assert reference.pieces(directional(flux, (1,), gb))[0][0] == comp
    v = nondegeneracy_check(flux, gb)
    assert v.nondegenerate


def test_structure_table_is_built_per_basis_object():
    # products takes no part in equality, so these bases compare equal but
    # multiply differently: each must get its own table
    two = FrequencyBasis(("1", "r"), (1.0, 2 ** 0.5),
                         products={(1, 1): (Fraction(2), Fraction(0))})
    three = FrequencyBasis(("1", "r"), (1.0, 2 ** 0.5),
                           products={(1, 1): (Fraction(3), Fraction(0))})
    assert two == three and hash(two) == hash(three)
    assert two.structure[1][1][1] == ((0, 2),)
    assert three.structure[1][1][1] == ((0, 3),)
    assert two.structure is two.structure
    for basis, r2 in ((two, 2), (three, 3)):
        flux = PiecewiseFlux(basis, [-1, 1], [[["0", "0", ["0", "1"]]]])
        gb = group_basis([Frequency.of(basis, [["0", "1"]])])
        # r * (r u^2) = r^2 u^2
        assert reference.pieces(lift_flux(flux, gb))[0][0][2].coeffs == (r2, 0)


def test_float_shadow_beyond_range_is_a_value_error():
    # 1e10 * 1e300 u^2: exact everywhere, beyond float range as a float table
    flux = PiecewiseFlux(B1, [-1, 1], [[["0", "0", "1e300"]]])
    gb = group_basis([Frequency.of(B1, [["1e10"]])])
    lifted = lift_flux(flux, gb)
    assert nondegeneracy_check(flux, gb).nondegenerate
    for call in (lambda: at(lifted, 0.5), lambda: lip_bound(lifted, -1, 1)):
        with pytest.raises(ValueError, match="beyond float range"):
            call()
    with pytest.raises(ValueError, match="float range"):
        PiecewiseFlux(B1, ["-1e400", 1], [[["0", "1"]]])
