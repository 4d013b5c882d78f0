"""Trigonometric polynomial invariants: reality, means, Fejer damping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apcl.freqlattice import Frequency, FrequencyBasis
from apcl.trigpoly import TorusPoly, TrigPoly, fejer_damp, fejer_factor
import reference
from bitwise import same_bits

B1 = FrequencyBasis.rational()
B2 = FrequencyBasis.with_sqrt(2)

XI = Frequency.of(B1, [[1]])


def sine_poly(mean=0.3, amp=0.5, freq=XI):
    # mean + amp*sin(2 pi xi.x): a_xi = amp/2i = -i*amp/2
    zero = Frequency.of(freq.basis, [[0] * freq.basis.dim] * freq.n)
    return TrigPoly(
        freq.basis,
        freq.n,
        {zero: complex(mean), freq: amp / 2j},
    )


def test_eval_constant():
    p = TrigPoly(B1, 1, {Frequency.of(B1, [[0]]): 0.7})
    assert p.eval([0.123]) == pytest.approx(0.7, abs=1e-15)
    assert p.eval(np.array([[0.0], [0.9]])) == pytest.approx([0.7, 0.7])


def test_eval_sine_peak():
    p = sine_poly(0.0, 0.5)
    assert p.eval([0.25]) == pytest.approx(0.5, abs=1e-14)


def test_eval_two_cosines_torus():
    # cos 2pi y1 + cos 2pi y2 at the origin
    v = TorusPoly(2, {(1, 0): 0.5, (0, 1): 0.5})
    assert v.eval([0.0, 0.0]) == pytest.approx(2.0, abs=1e-14)
    assert v.eval([0.5, 0.5]) == pytest.approx(-2.0, abs=1e-14)


def test_eval_dimension_mismatch():
    p = sine_poly(0.0, 1.0)
    with pytest.raises(ValueError):
        p.eval([0.1, 0.2])


# refusals that only a direct call reaches (the harness refuses such input
# first), each with its text
@pytest.mark.parametrize("make, msg", [
    pytest.param(lambda: TrigPoly(B1, 2, {XI: 0.5}),
                 "a 1-dimensional frequency among 2-dimensional ones", id="trig-term"),
    pytest.param(lambda: TorusPoly(2, {(1,): 0.5}), "expected 2-vector frequency, got (1,)",
                 id="torus-term"),
])
def test_direct_call_refusals(make, msg):
    with pytest.raises(ValueError) as e:
        make()
    assert str(e.value) == msg


def test_mean_and_coeff():
    p = sine_poly()
    zero = Frequency.of(B1, [[0]])
    assert p.mean == 0.3
    assert p.terms.get(zero, 0j) == pytest.approx(0.3)
    assert p.terms.get(XI, 0j) == pytest.approx(-0.25j)
    two_xi = Frequency.of(B1, [[2]])
    assert p.terms.get(two_xi, 0j) == 0
    v = TorusPoly(2, {(0, 0): -0.5, (1, -1): 0.25j})
    assert v.mean == -0.5
    assert v.coeff((-1, 1)) == pytest.approx(-0.25j)
    assert v.coeff((2, 0)) == 0


def test_reality_invariant_enforced():
    with pytest.raises(ValueError):
        # zero frequency with an imaginary coefficient
        TrigPoly(B1, 1, {Frequency.of(B1, [[0]]): 1j})
    with pytest.raises(ValueError):
        TrigPoly(B1, 1, [(XI, 0.5), (-XI, 0.5j)])  # conjugate conflict


def test_amplitude_sum_must_be_finite():
    # 1e308 at xi counts twice, with its conjugate; the zero frequency once
    assert TrigPoly(B1, 1, {Frequency.of(B1, [[0]]): 1e308}).mean == 1e308
    for amp in (1e308, float("inf"), complex("nan")):
        with pytest.raises(OverflowError, match="beyond float range"):
            TrigPoly(B1, 1, {XI: amp})
    with pytest.raises(OverflowError):
        TorusPoly(1, {(1,): complex("nan")})


def test_fejer_factor_values():
    assert fejer_factor((1,), 2) == pytest.approx(0.5)
    assert fejer_factor((0, 0), 7) == 1.0
    assert fejer_factor((1, 2), 2) == 0.0
    assert fejer_factor((3,), 2) == 0.0


def test_fejer_damp_drops_and_scales():
    v = TorusPoly(2, {(1, 0): 0.5, (1, 2): 0.25, (0, 0): 1.0})
    d = fejer_damp(v, 2)
    assert d.coeff((0, 0)) == 1.0
    assert d.coeff((1, 0)) == pytest.approx(0.25)
    assert (1, 2) not in d.terms
    with pytest.raises(ValueError):
        fejer_damp(v, 0)


def test_fejer_damp_positivity():
    # (1 + cos 2 pi y)^2 = 3/2 + 2 cos + (1/2) cos 4 pi y, nonnegative
    sq = TorusPoly(1, {(0,): 1.5, (1,): 1.0, (2,): 0.25})
    ys = np.linspace(0.0, 1.0, 2001).reshape(-1, 1)
    assert sq.eval(ys).min() >= -1e-12
    for r in (2, 3, 5, 8):
        damped = fejer_damp(sq, r)
        assert damped.eval(ys).min() >= -1e-12


def test_fejer_damp_converges():
    v = TorusPoly(2, {(1, 0): 0.5, (0, 1): 0.25j, (0, -1): -0.25j})
    kmax = 1
    for r in (4, 8, 16):
        d = fejer_damp(v, r)
        for k, a in v.terms.items():
            err = abs(d.coeff(k) - a)
            assert err <= 2 * kmax / r * abs(a) + 1e-15


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_reality_random_points(data):
    ks = data.draw(st.sets(st.integers(0, 4), min_size=1, max_size=4))
    terms = {}
    for k in ks:
        re = data.draw(st.floats(-2, 2, allow_nan=False))
        im = data.draw(st.floats(-2, 2, allow_nan=False))
        f = Frequency.of(B1, [[k]])
        terms[f] = complex(re) if k == 0 else complex(re, im)
    p = TrigPoly(B1, 1, terms)
    xs = np.linspace(-3, 3, 997).reshape(-1, 1)
    vals = p.eval(xs)  # internal assert carries the reality bound
    assert np.all(np.isfinite(vals))


def test_parseval_desk_scale():
    rng = np.random.default_rng(20240817)
    terms = {}
    for k in [(1, 0), (0, 1), (2, 1), (-1, 2)]:
        terms[k] = complex(rng.normal(), rng.normal())
    terms[(0, 0)] = complex(rng.normal())
    v = TorusPoly(2, terms)
    n = 16  # > 2*max|k_j|
    ys = np.stack(
        np.meshgrid(np.arange(n) / n, np.arange(n) / n, indexing="ij"), axis=-1
    ).reshape(-1, 2)
    quad = float(np.mean(v.eval(ys) ** 2))
    exact = sum(abs(a) ** 2 for a in v.terms.values())
    assert quad == pytest.approx(exact, abs=1e-10)


def test_fejer_damp_linear():
    v = TorusPoly(1, {(1,): 0.5, (2,): 0.25})
    w = TorusPoly(1, {(1,): -0.25, (0,): 1.0})
    r = 3
    left = fejer_damp(TorusPoly(1, {
        k: v.coeff(k) + w.coeff(k)
        for k in set(v.terms) | set(w.terms)
    }), r)
    for k in set(v.terms) | set(w.terms) | set(left.terms):
        expect = fejer_factor(k, r) * (v.coeff(k) + w.coeff(k))
        assert left.coeff(k) == pytest.approx(expect, abs=1e-15)


# eval sums each +-pair once as 2 re cos - 2 im sin; the complex sum over
# every key (reference.trig_values) agrees with it to a fraction of sum |a|.
# Both take cos and sin of phases 2 pi x.lam, but a phase of dim products
# may round differently in the two matrix products (one fused multiply-add
# more or less), by up to dim * eps * sum_i |x_i lam_i| each, and cos and
# sin pass that on at most unchanged.  So the bound is
# sum |a| * (1e-14 + 4 pi dim eps max_k sum_i |x_i lam_ki|).  Over 3000
# random TorusPolys with phases up to 1.5e3 the largest gap was 9e-13 of
# sum |a|, about a quarter of this bound.
def _eval_bound(p, xs, dim):
    rows = np.array([k.floats() if isinstance(k, Frequency) else k for k in p.spectrum()],
                    dtype=float).reshape(-1, dim)
    phase = float(np.max(np.abs(xs) @ np.abs(rows).T, initial=0.0))
    amp_sum = sum(abs(a) for a in p.terms.values())
    return amp_sum * (1e-14 + 4 * np.pi * dim * np.finfo(float).eps * phase)


def _draw_sum(data):
    """A TrigPoly or a TorusPoly with 0-4 +-pairs, and a mean that is absent, 0 or drawn."""
    amp = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    mean = data.draw(st.sampled_from(["absent", "zero", "drawn"]))
    if data.draw(st.booleans()):
        basis, n = data.draw(st.sampled_from([B1, B2])), data.draw(st.integers(1, 2))
        coord = st.fractions(min_value=-10, max_value=10, max_denominator=4)
        key = st.lists(st.lists(coord, min_size=basis.dim, max_size=basis.dim),
                       min_size=n, max_size=n).map(lambda rows: Frequency.of(basis, rows))
        zero = Frequency.of(basis, [[0] * basis.dim] * n)
        make = lambda terms: TrigPoly(basis, n, terms)  # noqa: E731
    else:
        n = data.draw(st.integers(1, 3))
        key = st.tuples(*[st.integers(-10, 10)] * n)
        zero = (0,) * n
        make = lambda terms: TorusPoly(n, terms)  # noqa: E731
    terms = []
    for k in data.draw(st.lists(key, max_size=4)):
        if k != zero:
            # either key of a pair
            terms.append((k, data.draw(amp)))
    if mean != "absent":
        terms.append((zero, 0.0 if mean == "zero" else data.draw(st.floats(-2.0, 2.0))))
    return make(_one_per_pair(terms)), n


def _one_per_pair(terms):
    """The terms with the later key of any +-pair dropped, so that no pair conflicts."""
    seen, out = set(), []
    for k, a in terms:
        neg = -k if isinstance(k, Frequency) else tuple(-c for c in k)
        if k not in seen:
            seen.update((k, neg))
            out.append((k, a))
    return out


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_firsts_and_zero_lay_out_the_spectrum(data):
    # the pairs' first keys open the spectrum, one per pair amplitude, and the
    # self-paired key is its middle one, or None with no mean: for either
    # public kind, and for the lift's unchecked TorusPoly._from_pairs of
    # either key of each pair, in the terms' order
    p, n = _draw_sum(data)
    polys = [p]
    if isinstance(p, TorusPoly):
        zero = (0,) * n
        items = [(k, a) for k, a in _one_per_pair(p.terms.items()) if k != zero]
        items = [(tuple(-c for c in k), a.conjugate()) if data.draw(st.booleans()) else (k, a)
                 for k, a in items]
        polys.append(TorusPoly._from_pairs(n, items, p.terms.get(zero)))
    else:
        zero = Frequency.of(p.basis, [[0] * p.basis.dim] * n)
    for q in polys:
        spectrum, half = q.spectrum(), len(q._pair_amps)
        assert type(q._firsts) is tuple and q._firsts == spectrum[:half]
        if zero in q.terms:
            assert len(spectrum) == 2 * half + 1
            assert q._zero == spectrum[half] == zero and q.mean == q.terms[q._zero].real
        else:
            assert len(spectrum) == 2 * half and q._zero is None
    if len(polys) == 2:
        assert polys[1]._firsts == p._firsts and polys[1]._zero == p._zero


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_eval_matches_the_complex_sum(data):
    p, dim = _draw_sum(data)
    scale = data.draw(st.sampled_from([1.0, 10.0, 50.0]))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    # phases x.lam up to a few 1e3 at the largest scale
    xs = np.random.default_rng(seed).uniform(-scale, scale, size=(64, dim))
    got, want = p.eval(xs), reference.trig_values(p, xs)
    bound = _eval_bound(p, xs, dim)
    assert got.shape == want.shape == (64,)
    assert np.max(np.abs(got - want), initial=0.0) <= bound
    # one point, as a float
    one = p.eval(xs[0])
    assert type(one) is float and abs(one - want[0]) <= bound
    if not p.terms:
        assert not np.any(got)
    elif len(p.terms) == 1:
        # the mean alone
        assert np.all(got == p.mean)


def test_eval_has_one_row_and_amplitude_per_pair():
    xi2 = Frequency.of(B1, [[2]])
    p = TrigPoly(B1, 1, [(XI, 0.5j), (-xi2, 0.25), (Frequency.of(B1, [[0]]), 0.3), (xi2, 0.25)])
    assert p.spectrum() == (-xi2, -XI, Frequency.of(B1, [[0]]), XI, xi2)
    # the first key of each pair, in spectrum order, and its coefficient
    assert p._pair_rows.tolist() == [[-2.0], [-1.0]]
    assert p._pair_amps.tolist() == [0.25, -0.5j]
    assert p.eval([0.25]) == pytest.approx(0.3 + 0.25 * 2 * np.cos(np.pi) - 1.0, abs=1e-15)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_spectrum_order_is_the_rational_coordinates_order(data):
    # mixed denominators, n <= 2 and q <= 2: each pair's first key is the
    # one whose flattened rational coordinates sort first, and the first
    # half of the spectrum is those keys in that order
    basis, n = data.draw(st.sampled_from([B1, B2])), data.draw(st.integers(1, 2))
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    key = st.lists(st.lists(coord, min_size=basis.dim, max_size=basis.dim),
                   min_size=n, max_size=n).map(lambda rows: Frequency.of(basis, rows))
    p = TrigPoly(basis, n, _one_per_pair((k, 0.5) for k in data.draw(st.lists(key, max_size=5))))

    def flat(f):
        return tuple(x for c in f.coords for x in c.coeffs)

    firsts = sorted({min(f, -f, key=flat) for f in p.terms if not f.is_zero}, key=flat)
    assert p.spectrum()[:len(firsts)] == tuple(firsts)
    assert len(p.spectrum()) == len(p.terms)


def test_eval_at_an_infinite_phase_raises_under_errstate():
    # the lift's round trip refuses phases beyond float range through this
    with np.errstate(over="raise", invalid="raise"), pytest.raises(FloatingPointError):
        TorusPoly(1, {(1,): 0.5}).eval(np.array([[np.inf]]))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_normaliser_matches_the_two_key_reference(data):
    # random terms of either kind, with repeated and negated keys, zero and
    # imaginary means and amplitudes near float range: the spectrum, pair rows
    # and pair amplitudes equal the reference's bit for bit, and each refusal
    # (conflict, complex self-pair, overflow) is the reference's
    amp = st.one_of(
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        st.sampled_from([0, 0.5, -0.5j, 1e308, complex(0, 1e308)]))
    real = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, 1e308]))
    often = st.integers(0, 3).map(bool)
    if data.draw(st.booleans()):
        basis, n = data.draw(st.sampled_from([B1, B2])), data.draw(st.integers(1, 2))
        coord = st.fractions(min_value=-6, max_value=6, max_denominator=6)
        rows = st.lists(st.lists(coord, min_size=basis.dim, max_size=basis.dim),
                        min_size=n, max_size=n)
        zero = [[0] * basis.dim] * n
        # each key built afresh, its negative through the checked constructor
        key = lambda r, sign: Frequency.of(basis, [[sign * x for x in c] for c in r])  # noqa: E731
        make = lambda items: TrigPoly(basis, n, items)  # noqa: E731
        ref = lambda items: reference.trig_poly_core(basis, n, items)  # noqa: E731
    else:
        n = data.draw(st.integers(1, 3))
        rows = st.tuples(*[st.integers(-5, 5)] * n)
        zero = (0,) * n
        key = lambda r, sign: tuple(sign * c for c in r)  # noqa: E731
        make = lambda items: TorusPoly(n, items)  # noqa: E731
        ref = lambda items: reference.torus_poly_core(n, items)  # noqa: E731
    signs = st.sampled_from([1, -1])
    base = data.draw(st.lists(rows, max_size=5)) + ([zero] if data.draw(st.booleans()) else [])
    # the zero key's coefficient mostly real
    picks = [(r, data.draw(signs), data.draw(real if r is zero and data.draw(often) else amp))
             for r in base]
    # a key met again, or its negative: mostly with the amplitude that agrees
    for _ in range(data.draw(st.integers(0, 2)) if picks else 0):
        r, sign, a = data.draw(st.sampled_from(picks))
        again = data.draw(signs)
        a = (a if again == 1 else complex(a).conjugate()) if data.draw(often) \
            else data.draw(amp)
        picks.append((r, sign * again, a))
    items = [(key(r, sign), a) for r, sign, a in picks]
    try:
        want = ref(items)
    except (ValueError, OverflowError) as e:
        with pytest.raises(type(e)) as got:
            make(items)
        assert str(got.value) == str(e)
        return
    p = make(items)
    assert p.spectrum() == want[0]
    assert same_bits(p._pair_rows, want[1]) and p._pair_rows.shape == want[1].shape
    assert same_bits(p._pair_amps, want[2]) and p._pair_amps.shape == want[2].shape
