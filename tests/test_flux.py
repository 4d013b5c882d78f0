"""Piecewise flux evaluation, directional fluxes, and the ND decider."""

import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

import apcl.flux as flux_mod
from apcl.flux import (
    PiecewiseFlux,
    _dot,
    affine_on,
    directional,
    lift_flux,
    lip_bound,
    nondegeneracy_check,
)
from apcl.freqlattice import Frequency, FrequencyBasis, _clear, _value, group_basis
from apcl.lift import lift_problem
from apcl.trigpoly import TrigPoly
import reference
from bitwise import same_bits

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


# refusals that only a direct call reaches (the harness refuses such input
# first), each with its text
@pytest.mark.parametrize("call, msg", [
    pytest.param(lambda: PiecewiseFlux(B1, [-1, 1], [[[B2.real([0, 1])]]]),
                 "a coefficient over the basis [1, sqrt2] for a flux over [1]",
                 id="coefficient-of-another-basis"),
    pytest.param(lambda: lift_flux(burgers(), group_basis([Frequency.of(B2, [[0, 1]])])),
                 "a group over the basis [1, sqrt2] for a flux over [1]",
                 id="group-of-another-basis"),
    pytest.param(lambda: PiecewiseFlux(FrequencyBasis(("1", "s"), (1.0, 2.0 ** 0.5)), [-1, 1],
                                       [[[FrequencyBasis(("1", "s"), (1.0, 3.0 ** 0.5))
                                          .real([0, 1])]]]),
                 "a coefficient over the basis [1=1.0, s=1.7320508075688772] for a flux "
                 "over [1=1.0, s=1.4142135623730951]", id="coefficient-of-a-basis-of-equal-labels"),
    pytest.param(lambda: PiecewiseFlux(B1, [-1, 1], [[[[0, 1]]]]),
                 "expected 1 coordinates, got 2", id="coefficient-of-another-length"),
    pytest.param(lambda: lip_bound(burgers(), 0, 1.0, 0.0), "need lo <= hi",
                 id="lip-bound-of-an-empty-range"),
    pytest.param(lambda: affine_on(PiecewiseFlux(B1, [-1, 1], [[["0", "1"], ["0", "1"]]]), 0, 1),
                 "affine_on expects a scalar flux", id="affine-on-a-flux-vector"),
])
def test_direct_call_refusals(call, msg):
    with pytest.raises(ValueError) as e:
        call()
    assert str(e.value) == msg


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


def test_eval_clamps_outside_range():
    # nothing is clamped: beyond the working range [-1, 1] and its 1e-12
    # slack, evaluation refuses, naming both ranges
    f = burgers(lo=-1, hi=1)
    with pytest.raises(ValueError, match=re.escape(
            "values [5.0, 5.0] leave the working range [-1.0, 1.0] of the flux")):
        at(f, 5.0)
    with pytest.raises(ValueError, match="leave the working range"):
        at(f, -1.0 - 2e-12)
    # within the slack the end piece is taken as given, unclipped
    (v,) = at(f, 1.0 + 5e-13)
    assert v == npoly.polyval(1.0 + 5e-13, f._coef_f[0, 0])
    assert v > 0.5


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
    assert lip_bound(f, 0, -1.0, 1.0) == 1.0
    aff = PiecewiseFlux(B1, [-1, 1], [[["0", "2"]]])
    assert lip_bound(aff, 0, -1.0, 1.0) == 2.0
    const = PiecewiseFlux(B1, [-1, 1], [[["3/2"]]])
    assert lip_bound(const, 0, -1.0, 1.0) == 0.0


def test_lip_bound_monotone_in_interval():
    f = burgers()
    small = lip_bound(f, 0, -0.5, 0.5)
    big = lip_bound(f, 0, -2.0, 2.0)
    assert small <= big


def _ref_lip_bound(flux, lo, hi):
    """The sampled bound: max |phi_k'| on 1024 points of each intersected piece.

    The end pieces reach past the span, into the slack that evaluation takes.
    """
    lo, hi = float(lo), float(hi)
    bp = [-np.inf, *flux._bp_f[1:-1], np.inf]
    out = []
    for k in range(flux.n):
        best = 0.0
        for p in range(flux.npieces):
            a, b = max(bp[p], lo), min(bp[p + 1], hi)
            if a > b:
                continue
            us = np.linspace(a, b, 1024) if a < b else np.array([a])
            dphi = npoly.polyder(flux._coef_f[p, k])
            best = max(best, float(np.abs(npoly.polyval(us, dphi)).max()))
        out.append(best)
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
    """phi' affine: the end points decide, so the old 1024-point bound is met bit for bit.

    Each component k is bounded alone, and reads its own phi_k'."""
    flux = _draw_low_degree_flux(data)
    rlo, rhi = flux.urange
    # the breakpoints, and the span's ends moved 5e-13 out, into the slack
    point = st.one_of(st.sampled_from([*flux._bp_f.tolist(), rlo - 5e-13, rhi + 5e-13]),
                      st.floats(min_value=rlo, max_value=rhi))
    lo = data.draw(point)
    hi = lo if data.draw(st.booleans()) else data.draw(point)
    lo, hi = min(lo, hi), max(lo, hi)
    ref = _ref_lip_bound(flux, lo, hi)
    for k in range(flux.n):
        assert lip_bound(flux, k, lo, hi) == ref[k]


def test_lip_bound_exact_max_above_degree_two():
    """A cubic and a quartic piece whose |phi'| peaks inside: the bound is
    at least the sampled one and max|phi'| on a fine grid, and it is the exact peak."""
    # phi' = 3 - (u+1)^2 on [-2, 0] (peak 3 at u = -1), phi' = u^3 - 3u^2 + 2u
    # on [0, 2] (peaks 2/(3 sqrt3) at u = 1 -+ 1/sqrt3, irrational)
    f = PiecewiseFlux(B1, [-2, 0, 2], [[["-1/3", "2", "-1", "-1/3"]],
                                       [["-1/3", "0", "1", "-1", "1/4"]]])
    for lo, hi in [(-2.0, 2.0), (-1.5, -0.5), (0.0, 2.0), (0.1, 0.3), (0.5, 1.9),
                   (-0.25, 1.0), (-1.0, -1.0)]:
        got = lip_bound(f, 0, lo, hi)
        (ref,) = _ref_lip_bound(f, lo, hi)
        fine = 0.0
        for p in range(f.npieces):
            a, b = max(f._bp_f[p], lo), min(f._bp_f[p + 1], hi)
            if a <= b:
                us = np.linspace(a, b, 100_001)
                dphi = npoly.polyder(f._coef_f[p, 0])
                fine = max(fine, float(np.abs(npoly.polyval(us, dphi)).max()))
        assert got >= ref * (1 - 1e-12)
        assert got >= fine * (1 - 1e-12)
    assert lip_bound(f, 0, -2.0, 2.0) == pytest.approx(3.0, rel=1e-15)
    # away from u = 0, where the cubic's phi'(0) = 2 counts too
    assert lip_bound(f, 0, 0.1, 1.9) == pytest.approx(2 / (3 * 3 ** 0.5), rel=1e-12)


def test_lip_bound_reaches_into_the_slack():
    # -u^2/2 on [-1, 0], u^2/2 on [0, 1]: |phi'| = |u| grows past either end,
    # so 5e-13 out, where evaluation takes the end piece, it exceeds 1
    f = PiecewiseFlux(B1, [-1, 0, 1], [[["0", "0", "-1/2"]], [["0", "0", "1/2"]]])
    lo, hi = -1.0 - 5e-13, 1.0 + 5e-13
    for (a, b), u, p in (((lo, -0.5), lo, 0), ((0.5, hi), hi, -1), ((lo, hi), hi, -1)):
        slope = abs(float(npoly.polyval(u, npoly.polyder(f._coef_f[p, 0]))))
        assert slope > 1.0
        assert lip_bound(f, 0, a, b) == slope


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
    # the drawn kbar, its negative, and with a zero first entry
    for k in (kbar, [-x for x in kbar], [0, *kbar[1:]]):
        _assert_directional_is_k_dot_lift(flux, gb, k)


def _assert_directional_is_k_dot_lift(flux, gb, kbar):
    """``directional`` is sum_j k_j (lambda_j.phi) by RealQ, and the integer
    tensor ``_dot(xi, piece)`` of xi = sum_j k_j lambda_j, numerators and den."""
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
    mul = flux.basis.structure
    # xi in frequency space, its numerators rescaled to the group's denominator
    xi = gb.frequencies[0].scale(kbar[0])
    for kj, lam in zip(kbar[1:], gb.frequencies[1:], strict=True):
        xi = xi + lam.scale(kj)
    assert gb.den % xi.den == 0
    xi = [tuple(x * (gb.den // xi.den) for x in c) for c in xi.num]
    assert d._num == tuple((tuple(_dot(xi, piece, mul)),) for piece in flux._num)
    assert d._den == gb.den * flux._den * mul[0]


def _checked(flux):
    """``flux`` rebuilt through the public constructor from its rational coefficients."""
    return PiecewiseFlux(flux.basis, flux.breakpoints, [
        [[[Fraction(x, flux._den) for x in c] for c in comp] for comp in piece]
        for piece in flux._num])


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_derived_fluxes_are_continuous_and_equal_the_checked_build(data):
    """The lift and directional fluxes skip the constructor's checks: they
    are continuous anyway, and equal what the checked constructor builds."""
    flux, gb = _draw_case(data, irrational=data.draw(st.booleans()))
    if gb.rank == 0:
        return
    kbar = data.draw(st.lists(st.integers(-3, 3), min_size=gb.rank, max_size=gb.rank))
    derived = [lift_flux(flux, gb)] + [
        directional(flux, k, gb)
        for k in (kbar, [-x for x in kbar], [0] * gb.rank, [0, *kbar[1:]])]
    for d in derived:
        d._check_continuity()
        checked = _checked(d)
        assert set(vars(checked)) <= set(vars(d))
        for name in ("basis", "breakpoints", "urange", "n"):
            assert getattr(d, name) == getattr(checked, name)
        # the same rationals, over a denominator that need not be the least
        assert reference.pieces(d) == reference.pieces(checked)
        assert same_bits(d._coef_f, checked._coef_f)


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


UNDECLARED = "product of basis elements sqrt2*sqrt3 is not declared; exact multiplication undefined"


def _refused(call):
    with pytest.raises(ValueError) as err:
        call()
    return str(err.value)


def test_undeclared_product_raises_only_when_both_factors_are_irrational():
    gb = group_basis([Frequency.of(B3, [["0", "1", "0"]])])
    for decide_first in (False, True):
        # sqrt3 u^2 against the frequency sqrt2: sqrt2*sqrt3 is not declared;
        # every call refuses, the decision too, in either order and again
        # once the flux keeps its lift
        flux = PiecewiseFlux(B3, [-1, 1], [[["0", "0", ["0", "0", "1"]]]])
        calls = [lambda: lift_flux(flux, gb), lambda: directional(flux, (1,), gb),
                 lambda: nondegeneracy_check(flux, gb)]
        for call in (calls[::-1] if decide_first else calls) * 2:
            assert _refused(call) == UNDECLARED
        # sqrt3 u + u^2/2: only the degree-1 coefficient needs sqrt2*sqrt3,
        # and the decision reads degree >= 2 only, so it still gives a
        # verdict; the lift and a directional flux need every degree, and
        # refuse on every call, before the decision has read the lift and after
        linear = PiecewiseFlux(B3, [-1, 1], [[["0", ["0", "0", "1"], "1/2"]]])
        if decide_first:
            assert nondegeneracy_check(linear, gb).nondegenerate
        for _ in range(2):
            for call in (lambda: lift_flux(linear, gb), lambda: directional(linear, (1,), gb)):
                assert _refused(call) == UNDECLARED
        assert nondegeneracy_check(linear, gb).nondegenerate
    # a rational factor on either side needs no product table
    rational = group_basis([Frequency.of(B3, [["2", "0", "0"]])])
    assert reference.pieces(lift_flux(flux, rational))[0][0][2].coeffs == (0, 0, 2)
    plain = PiecewiseFlux(B3, [-1, 1], [[["0", "0", "1"]]])
    assert reference.pieces(lift_flux(plain, gb))[0][0][2].coeffs == (0, 1, 0)
    assert nondegeneracy_check(plain, gb).nondegenerate


def test_witness_needs_no_product_that_only_the_lift_needs():
    # (u^2 + sqrt3 u, u^2) over the group of (-1 - sqrt2, 1 - sqrt2) and
    # (-1 + sqrt2, 1 + sqrt2): every lambda_j.phi needs sqrt2*sqrt3 in degree
    # 1, but the witness xi = 2 lambda_1 - lambda_2 = (2, -2) is rational,
    # and xi.phi = 2 sqrt3 u
    flux = PiecewiseFlux(B3, [-1, 1], [[["0", ["0", "0", "1"], "1"], ["0", "0", "1"]]])
    gb = group_basis([Frequency.of(B3, [["-1", "-1", "0"], ["1", "-1", "0"]]),
                      Frequency.of(B3, [["-1", "1", "0"], ["1", "1", "0"]])])
    for _ in range(2):
        v = nondegeneracy_check(flux, gb)
        assert (v.nondegenerate, v.kbar, v.piece, v.interval, v.tau, v.c) == \
            (False, (2, -1), 0, (-1, 1), 3.4641016151377544, 0.0)
        for call in (lambda: lift_flux(flux, gb), lambda: directional(flux, v.kbar, gb)):
            assert _refused(call) == UNDECLARED


def _tuples(x) -> bool:
    """Whether ``x`` is a tuple of tuples, ..., of integers or strings, at every level."""
    return x.__class__ in (int, str) or x.__class__ is tuple and all(map(_tuples, x))


def test_a_lift_is_the_decides_tensor_and_a_refused_lift_keeps_its_message_there():
    # the lifted flux's numerators are the tensor the decide memoised, the
    # object itself, over the one lift denominator; a directional flux of it
    # is tuples throughout too
    flux = PiecewiseFlux(B2, [-1, 0, 1], [[["0", "0", "1/2"], ["0", ["0", "1/3"], "1"]]] * 2)
    gb = group_basis([Frequency.of(B2, [[1, 0], [0, 1]]), Frequency.of(B2, [[0, 1], [1, 0]])])
    nondegeneracy_check(flux, gb)
    tensor, den, lifted = flux._lifts[(gb.rows, gb.den)]
    assert lift_flux(flux, gb) is lifted and lifted._num is tensor and _tuples(tensor)
    assert den == lifted._den == gb.den * flux._den * flux.basis.structure[0]
    assert _tuples(directional(flux, (2, -1), gb)._num)
    # sqrt3 u + u^2/2 against the frequency sqrt2: the decide reads degree 2
    # and gives a verdict; the tensor keeps degree 1's refusal in its place,
    # and the lift refuses with it
    flux = PiecewiseFlux(B3, [-1, 1], [[["0", ["0", "0", "1"], "1/2"]]])
    gb = group_basis([Frequency.of(B3, [["0", "1", "0"]])])
    assert nondegeneracy_check(flux, gb).nondegenerate
    tensor, den, lifted = flux._lifts[(gb.rows, gb.den)]
    assert lifted == tensor[0][0][1] == UNDECLARED and _tuples(tensor)
    assert _refused(lambda: lift_flux(flux, gb)) == UNDECLARED
    assert flux._lifts[(gb.rows, gb.den)][0] is tensor


@pytest.mark.parametrize("degenerate", [False, True])
def test_a_decide_and_its_lifts_contract_each_generator_once_per_piece(degenerate, monkeypatch):
    # (u^2, u^3) on three pieces, over Z^2: nondegenerate; with u^2 for the
    # second component on the last piece, (1, -1) makes it affine there
    last = ["0", "0", "1"] if degenerate else ["0", "0", "0", "1"]
    pieces = [[["0", "0", "1"], ["0", "0", "0", "1"]]] * 2 + [[["0", "0", "1"], last]]
    flux = PiecewiseFlux(B1, [-2, -1, 0, 1], pieces)
    freqs = [Frequency.of(B1, [[1], [0]]), Frequency.of(B1, [[0], [1]])]
    gb = group_basis(freqs)
    u0 = TrigPoly(B1, 2, [(freqs[0], 0.25), (freqs[1], 0.25j)])
    degrees = []
    dot = flux_mod._dot

    def counted(xi, piece, *rest):
        degrees.append(max(len(comp) for comp in piece) - 1)
        return dot(xi, piece, *rest)

    monkeypatch.setattr(flux_mod, "_dot", counted)
    v = nondegeneracy_check(flux, gb)
    assert v.nondegenerate is not degenerate
    lifted = lift_flux(flux, gb)
    directional(flux, v.kbar or (1, 0), gb)
    assert lift_problem(u0, flux).flux is lifted
    # npieces x rank contractions of the whole pieces, of degree 3, 3 and 3
    # or 2, and for a degenerate verdict one more of the witness piece's
    # degrees <= 1
    assert degrees == [3, 3, 3, 3] + [2 if degenerate else 3] * 2 + [1] * degenerate


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
    # rank 2, so kbar can have a zero or a negative entry
    two = group_basis([Frequency.of(basis, [["1", "2"]]), Frequency.of(basis, [["0", "1/3"]])])
    assert two.rank == 2
    for kbar in ((0, 0), (1, 0), (0, -1), (-2, 3), (3, -1)):
        _assert_directional_is_k_dot_lift(flux, two, kbar)


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


@given(st.lists(st.fractions(max_denominator=10 ** 6).filter(lambda c: abs(c) < 10 ** 300),
                min_size=2, max_size=2))
@settings(max_examples=200, deadline=None)
def test_realq_shadow_is_the_shadow_of_its_numerators(coeffs):
    # RealQ.value, built on first read from the reduced coordinates, is _value of
    # the numerators over their common denominator bit for bit, at any magnitude
    (num,), den = _clear([coeffs])
    assert same_bits(np.array([B2.real(coeffs).value]), np.array([_value(num, den, B2.values)]))


def test_realq_shadow_beyond_range_is_checked_where_it_is_read():
    # a coordinate beyond float range, and two in range whose sum over the values is not
    for coeffs in ([Fraction(10 ** 400), 0], ["1e308", "1e308"]):
        big = B2.real(coeffs)  # the exact value is built; its shadow is not
        with pytest.raises(OverflowError):
            big.value
        # a flux from it is refused at its first numeric use
        flux = PiecewiseFlux(B2, [-1, 1], [[["0", "0", big]]])
        with pytest.raises(ValueError, match="beyond float range"):
            at(flux, 0.5)


def test_float_shadow_beyond_range_is_a_value_error():
    # 1e10 * 1e300 u^2: exact everywhere, beyond float range as a float table
    flux = PiecewiseFlux(B1, [-1, 1], [[["0", "0", "1e300"]]])
    gb = group_basis([Frequency.of(B1, [["1e10"]])])
    lifted = lift_flux(flux, gb)
    assert nondegeneracy_check(flux, gb).nondegenerate
    for call in (lambda: at(lifted, 0.5), lambda: lip_bound(lifted, 0, -1, 1)):
        with pytest.raises(ValueError, match="beyond float range"):
            call()
    with pytest.raises(ValueError, match="float range"):
        PiecewiseFlux(B1, ["-1e400", 1], [[["0", "1"]]])
