"""End-to-end gate: ten numbered checks, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines inline;
they are written straight to the terminal either way.
"""

import math
import random
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from apcl.flux import (
    PiecewiseFlux,
    directional,
    lift_flux,
    lip_bound,
    nondegeneracy_check,
)
from apcl.freqlattice import Frequency, FrequencyBasis, group_basis, member_coords
from apcl.lift import lift_problem
from apcl.solver import (
    CellField,
    SolverConfig,
    TorusGrid,
    advance,
    entropy_residual,
    exact_cell_average,
    exact_counterexample,
    fourier_coeff,
    l1_distance,
    run,
    step,
)
from apcl.trigpoly import TorusPoly, TrigPoly, fejer_damp, fejer_factor
import reference
from sweeps import advance_with_sweeps

B1 = FrequencyBasis.rational()
B2 = FrequencyBasis.with_sqrt(2)
Z0 = (0.0, 0.0)  # the torus offset of the orbit through the data


def _line(num, name, ok, detail, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {num:2d} {name}: {detail} ({elapsed:.2f}s, limit {limit:g}s)",
          flush=True)


def burgers(basis=B1):
    return PiecewiseFlux(basis, [-2, 2], [[["0", "0", "1/2"]]])


def test_01_mass_conservation():
    t0 = time.perf_counter()
    flux = burgers()
    v = exact_cell_average(TorusPoly(1, {(0,): 0.3, (1,): -0.25j}),
                           TorusGrid((256,)))
    m0 = v.mean()
    drift = 0.0
    for _ in range(1000):
        _, _, (v,) = advance(flux, 0.45, math.inf, v)
        drift = max(drift, abs(v.mean() - m0))
    rel = drift / abs(m0)
    el = time.perf_counter() - t0
    ok = rel <= 1e-12 and el < 1.0
    _line(1, "mass conservation", ok, f"relative mean drift {rel:.3e} <= 1e-12",
          el, 1.0)
    assert rel <= 1e-12
    assert el < 1.0


def test_02_l1_contraction_pairs():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250811)
    flux = burgers()
    g = TorusGrid((64,))
    worst = -np.inf
    for _ in range(20):
        fields = []
        for _ in range(2):
            amps = {k: complex(*rng.normal(0, 0.15, 2)) for k in range(1, 4)}
            # max principle keeps iterates inside the initial range, so
            # capping |u0| at 1.5 keeps every evaluation inside [-2, 2]
            s = min(1.0, 1.0 / sum(2 * abs(a) for a in amps.values()))
            terms = {(0,): complex(rng.uniform(-0.5, 0.5))}
            terms.update({(k,): s * a for k, a in amps.items()})
            fields.append(exact_cell_average(TorusPoly(1, terms), g))
        fa, fb = fields
        d = l1_distance(fa, fb)
        for _ in range(200):
            alpha = lip_bound(flux, 0, min(fa.vmin, fb.vmin), max(fa.vmax, fb.vmax))
            dt = 0.45 / (alpha / g.h[0])
            fa = step(fa, flux, dt, alpha=alpha)
            fb = step(fb, flux, dt, alpha=alpha)
            d2 = l1_distance(fa, fb)
            worst = max(worst, d2 - d)
            d = d2
    el = time.perf_counter() - t0
    ok = worst <= 1e-12 and el < 10.0
    _line(2, "L1 contraction", ok,
          f"20 pairs x 200 joint steps, worst increase {worst:.3e} <= 1e-12",
          el, 10.0)
    assert worst <= 1e-12
    assert el < 10.0


def test_03_cell_entropy_inequality():
    t0 = time.perf_counter()
    flux = burgers()
    g = TorusGrid((128,))
    ys = g.centers(0)
    riemann = CellField(g, np.where(ys < 0.5, 0.9, -0.3))
    sine = exact_cell_average(TorusPoly(1, {(0,): 0.3, (1,): -0.25j}), g)
    worst = 0.0
    for f in (riemann, sine):
        ks = np.linspace(f.vmin, f.vmax, 20)
        for _ in range(40):
            alpha = lip_bound(flux, 0, f.vmin, f.vmax)
            dt = 0.45 / (alpha / g.h[0])
            f2 = step(f, flux, dt, alpha=alpha)
            for k in ks:
                worst = max(worst, entropy_residual(f, f2, flux, dt, k, alpha=alpha))
            f = f2
    # on T^2 a step is two sweeps, each checked with the alpha it used:
    # Burgers lifted over {1, sqrt2}, sine data along both axes
    lifted = lift_flux(burgers(B2), group_basis([Frequency.of(B2, [[1, 0]]),
                                                 Frequency.of(B2, [[0, 1]])]))
    g2 = TorusGrid((64, 48))
    f = exact_cell_average(TorusPoly(2, {(0, 0): 0.2, (1, 0): -0.4j, (0, 1): 0.3j}), g2)
    ks = np.linspace(f.vmin, f.vmax, 20)
    for _ in range(20):
        _, dt, (f,), sweeps = advance_with_sweeps(lifted, 0.9, math.inf, f)
        for before, after, alpha, axis in sweeps:
            for k in ks:
                worst = max(worst, entropy_residual(before, after, lifted, dt, k,
                                                    alpha=alpha, axis=axis))
    el = time.perf_counter() - t0
    ok = worst <= 1e-12 and el < 10.0
    _line(3, "cell entropy inequality", ok,
          f"1D Riemann+sine and T^2 sine data, every sweep, 20-value k sweep, "
          f"residual {worst:.3e} <= 1e-12", el, 10.0)
    assert worst <= 1e-12
    assert el < 10.0


def test_04_decay_to_mean():
    t0 = time.perf_counter()
    u0 = TrigPoly(B1, 1, {Frequency.of(B1, [[0]]): 0.3,
                          Frequency.of(B1, [[1]]): -0.25j})
    pb = lift_problem(u0, burgers())
    traj = run(pb.v0, pb.flux, TorusGrid((1024,)), SolverConfig(t_end=15.0))
    final = traj.rows[-1]["l1_to_mean"]
    el = time.perf_counter() - t0
    ok = final <= 0.05 and el < 30.0
    _line(4, "decay to the mean", ok,
          f"N=1024 T=15 final L1 distance {final:.4f} <= 0.05", el, 30.0)
    assert final <= 0.05
    # frozen fine-grid value for this exact configuration
    assert final == pytest.approx(0.015971, abs=2e-3)
    assert el < 30.0


def test_05_traveling_wave_sharpness_and_order():
    t0 = time.perf_counter()
    flux = PiecewiseFlux(B1, [-1, 1], [[["0", "1/2"]]])
    gb = group_basis([Frequency.of(B1, [[1]])])
    wave = exact_counterexample(flux, gb, Fraction(-1, 4), Fraction(1, 4), (1,),
                                tau=0.5)
    v0, lifted = wave.torus_poly(0.0), lift_flux(flux, gb)

    traj = run(v0, lifted, TorusGrid((1024,)), SolverConfig(t_end=5.0))
    initial = traj.rows[0]["l1_to_mean"]
    final = traj.rows[-1]["l1_to_mean"]
    ratio = final / initial
    assert initial == pytest.approx((1 / 2) / np.pi, rel=1e-3)

    errs, hs = [], []
    for n in (128, 256, 512, 1024):
        g = TorusGrid((n,))
        tr = run(v0, lifted, g, SolverConfig(t_end=1.0))
        errs.append(l1_distance(tr.fields[-1],
                                exact_cell_average(wave.torus_poly(1.0), g)))
        hs.append(1.0 / n)
    orders = [math.log(e1 / e2) / math.log(h1 / h2)
              for e1, e2, h1, h2 in zip(errs, errs[1:], hs, hs[1:])]
    el = time.perf_counter() - t0
    ok = ratio >= 0.8 and min(orders) >= 0.8 and el < 60.0
    _line(5, "traveling wave persists", ok,
          f"L1 ratio at T=5 {ratio:.3f} >= 0.8, convergence orders "
          f"{['%.2f' % o for o in orders]} >= 0.8", el, 60.0)
    assert ratio >= 0.8
    assert min(orders) >= 0.8
    assert el < 60.0


def _directions(m, kmax=5):
    """Primitive integer directions with positive leading entry."""
    out = []
    for k in product(range(-kmax, kmax + 1), repeat=m):
        if not any(k):
            continue
        if next(x for x in k if x) < 0:
            continue
        if math.gcd(*(abs(x) for x in k)) != 1:
            continue
        out.append(k)
    out.sort(key=lambda t: (max(abs(x) for x in t), t))
    return out


def _enum_witness(flux, gb, dirs):
    for k in dirs:
        d = directional(flux, k, gb)
        for p, piece in enumerate(reference.pieces(d)):
            if all(c.is_zero for c in piece[0][2:]):
                return k, p
    return None


def test_06_flat_direction_decider():
    t0 = time.perf_counter()
    rnd = random.Random(6021023)
    dirs = {m: _directions(m) for m in (1, 2, 3)}

    def frac():
        return Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))

    done = n_deg = n_nd = 0
    while done < 50:
        basis = B1 if rnd.random() < 0.5 else B2
        q = basis.dim
        n = rnd.randint(1, 2)
        freqs = [Frequency.of(basis, [[frac() for _ in range(q)]
                                      for _ in range(n)])
                 for _ in range(rnd.randint(1, 3))]
        gb = group_basis(freqs)
        if not 1 <= gb.rank <= 3:
            continue
        npieces = rnd.randint(1, 2)
        bps = [Fraction(-1), Fraction(0), Fraction(1)][: npieces + 1]
        pieces = [[[reference.rational(basis, frac()) for _ in range(3)]
                   for _ in range(n)] for _ in range(npieces)]
        if rnd.random() < 0.35:
            # plant an affine piece so both verdicts get exercised
            for comp in pieces[0]:
                comp[2] = reference.zero(basis)
        for p in range(1, npieces):
            for c in range(n):
                left = pieces[p - 1][c][0] + pieces[p - 1][c][1].scale(bps[p]) \
                    + pieces[p - 1][c][2].scale(bps[p] ** 2)
                right = pieces[p][c][0] + pieces[p][c][1].scale(bps[p]) \
                    + pieces[p][c][2].scale(bps[p] ** 2)
                pieces[p][c][0] = pieces[p][c][0] + (left - right)
        flux = PiecewiseFlux(basis, bps, pieces)
        verdict = nondegeneracy_check(flux, gb)
        brute = _enum_witness(flux, gb, dirs[gb.rank])
        if verdict.nondegenerate:
            assert brute is None
            n_nd += 1
        else:
            d = directional(flux, verdict.kbar, gb)
            coeffs = reference.pieces(d)[verdict.piece][0]
            assert all(c.is_zero for c in coeffs[2:])
            n_deg += 1
        if brute is not None:
            assert not verdict.nondegenerate
        done += 1
    el = time.perf_counter() - t0
    ok = done == 50 and el < 10.0
    _line(6, "flat-direction decider", ok,
          f"50 rational instances agree with enumeration "
          f"({n_deg} degenerate, {n_nd} nondegenerate)", el, 10.0)
    assert done == 50
    assert n_deg >= 5 and n_nd >= 5
    assert el < 10.0


def _rational_rank(rows):
    mat = [list(map(Fraction, r)) for r in rows]
    rank = 0
    for c in range(len(mat[0]) if mat else 0):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][c] != 0:
                f = mat[r][c] / mat[rank][c]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def test_07_group_basis_exactness():
    t0 = time.perf_counter()
    rnd = random.Random(7070707)
    for _ in range(100):
        basis = B1 if rnd.random() < 0.5 else B2
        q = basis.dim
        n = rnd.randint(1, 3)
        freqs = []
        while not freqs or all(f.is_zero for f in freqs):
            freqs = [Frequency.of(basis,
                                  [[Fraction(rnd.randint(-4, 4),
                                             rnd.randint(1, 4))
                                    for _ in range(q)] for _ in range(n)])
                     for _ in range(rnd.randint(1, 6))]
        gb = group_basis(freqs)
        flat = [[fr for c in f.coords for fr in c.coeffs] for f in freqs]
        assert gb.rank == _rational_rank(flat)
        zero = Frequency.of(basis, [[0] * q for _ in range(n)])
        for f in freqs:
            k = member_coords(f, gb)
            assert k is not None
            acc = zero
            for ki, bf in zip(k, gb.frequencies):
                acc = acc + bf.scale(ki)
            assert acc.coords == f.coords
    el = time.perf_counter() - t0
    ok = el < 5.0
    _line(7, "group basis exactness", ok,
          "100 random spectra reconstruct exactly, rank matches rational rank",
          el, 5.0)
    assert el < 5.0


def _quasi_problem():
    one = Frequency.of(B2, [[1, 0]])
    rt2 = Frequency.of(B2, [[0, 1]])
    zero = Frequency.of(B2, [[0, 0]])
    u0 = TrigPoly(B2, 1, {zero: 0.3, one: -0.25j})
    return lift_problem(u0, burgers(B2), group=group_basis([one, rt2]))


def test_08_orbit_average():
    t0 = time.perf_counter()
    pb = _quasi_problem()
    assert pb.lam == pytest.approx(np.array([[1.0], [np.sqrt(2)]]))
    g = TorusGrid((64, 64))
    w = exact_cell_average(TorusPoly(2, {(1, 0): 0.5}), g)
    est = pb.orbit_mean(w, Z0, 200.0, 8)
    el = time.perf_counter() - t0
    ok = abs(est) <= 0.02 and el < 10.0
    _line(8, "ergodic orbit average", ok,
          f"cos(2 pi y1) over R=200 orbit: {est:.2e}, torus integral 0 "
          f"(tolerance 0.02)", el, 10.0)
    assert abs(est) <= 0.02
    assert el < 10.0


def test_09_spectrum_stays_in_group():
    t0 = time.perf_counter()
    pb = _quasi_problem()
    traj = run(pb.v0, pb.flux, TorusGrid((128, 128)), SolverConfig(t_end=1.0))
    final = traj.fields[-1]
    probes = [(0, 1), (1, 1), (0, 2), (2, 1), (1, 2)]
    worst = max(abs(fourier_coeff(final, k)) for k in probes)
    drift = abs(final.mean() - 0.3)
    el = time.perf_counter() - t0
    ok = worst <= 0.01 and drift <= 1e-3 and el < 30.0
    _line(9, "spectrum confined to initial group", ok,
          f"worst outside coefficient {worst:.2e} <= 0.01, "
          f"mean drift {drift:.2e} <= 1e-3", el, 30.0)
    assert worst <= 0.01
    assert drift <= 1e-3
    assert el < 30.0


def test_10_fejer_damping():
    t0 = time.perf_counter()
    # weights match the triangular product exactly where it is representable
    assert fejer_factor((0, 0), 3) == 1.0
    assert fejer_factor((1,), 2) == 0.5
    assert fejer_factor((1, 1), 2) == 0.25
    assert fejer_factor((2,), 2) == 0.0
    assert fejer_factor((5, 1), 4) == 0.0
    rnd = random.Random(10)
    for _ in range(200):
        r = rnd.randint(1, 9)
        k = tuple(rnd.randint(-9, 9) for _ in range(rnd.randint(1, 3)))
        want = 1.0
        for kj in k:
            want *= max(0.0, 1.0 - abs(kj) / r)
        assert fejer_factor(k, r) == want
    # damped coefficients are exactly factor * original
    p = TorusPoly(1, {(0,): 1.5, (1,): 0.5, (2,): 0.125})
    for r in (2, 3, 5, 8):
        d = fejer_damp(p, r)
        for k, amp in p.terms.items():
            f = fejer_factor(k, r)
            assert d.coeff(k) == (amp * f if f > 0 else 0.0)
    # damping a nonnegative polynomial keeps it (numerically) nonnegative
    ys = np.linspace(0.0, 1.0, 4096, endpoint=False).reshape(-1, 1)
    worst = np.inf
    for r in (2, 3, 5, 8):
        worst = min(worst, float(fejer_damp(p, r).eval(ys).min()))
    el = time.perf_counter() - t0
    ok = worst >= -1e-12 and el < 1.0
    _line(10, "triangular coefficient damping", ok,
          f"weights exact, damped square stays >= {worst:.2e} > -1e-12",
          el, 1.0)
    assert worst >= -1e-12
    assert el < 1.0
