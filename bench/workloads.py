"""Seeded inputs for the three bench workloads.

Everything here is plain Python data (config dicts, Fractions); the seed
decides every number, and the program under test only ever sees the
generated configs and objects.

* ``wave_1d``: traveling-wave counterexample, convergence ladder and a
  contraction pair on the 1D torus.  The seed picks where the wave sits
  inside the affine piece of the flux (its width is fixed, so the error of
  the linear scheme does not depend on the seed) and the contraction data.
* ``lifted_nd``: two ``spectrum`` runs (T^2 from n=1 data, T^2 from n=2
  data with a large orbit-mean cube) and a rank-3 ``decay`` on T^3.  The
  seed picks the phases of the data and their moduli within +-2%; with one
  term per lifted axis a phase is a torus shift, so the work per pass does
  not depend on the seed.
* ``decide_exact``: random instances for the exact layer, in the style of
  the decider acceptance test: 1-6 frequencies over {1} or {1, sqrt2}, n<=2,
  rank<=3, 1-3 flux pieces of degree 3-5, a third with a planted affine
  piece.  The sizes are dealt evenly (``_shapes``) and only the values are
  random, so the work per sweep hardly depends on the seed.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

SQRT2 = math.sqrt(2.0)
B1 = {"labels": ["1"], "values": [1.0]}
B2 = {"labels": ["1", "sqrt2"], "values": [1.0, SQRT2],
      "products": [[1, 1, ["2", "0"]]]}
B3 = {"labels": ["1", "sqrt2", "sqrt3"], "values": [1.0, SQRT2, math.sqrt(3.0)]}

BURGERS = {"breakpoints": ["-2", "2"], "pieces": [[["0", "0", "1/2"]]]}
# u/2 on [-1/2, 1/2] and convex quadratics outside, continuous: the wave
# lives on the affine middle piece, the evaluator still sees three pieces.
WAVE_FLUX = {
    "breakpoints": ["-2", "-1/2", "1/2", "2"],
    "pieces": [[["1/8", "1", "1/2"]], [["0", "1/2"]], [["1/8", "0", "1/2"]]],
}
WAVE_WIDTH = Fraction(2, 5)


def _amp(rnd: random.Random, modulus: float, spread: float = 0.02) -> dict:
    """Complex amplitude with a seeded phase and a modulus within +-spread."""
    r = modulus * (1.0 + rnd.uniform(-spread, spread))
    z = cmath.rect(r, rnd.uniform(0.0, 2.0 * math.pi))
    return {"re": z.real, "im": z.imag}


def _term(freq, amp) -> dict:
    return {"frequency": freq, **amp}


def wave_1d(seed: int) -> list[dict]:
    rnd = random.Random(f"wave_1d/{seed}")
    # [a, a + 2/5] inside the affine piece [-1/2, 1/2]
    a = Fraction(rnd.randint(-19, -1), 40)
    b = a + WAVE_WIDTH
    wave = {"a": str(a), "b": str(b), "kbar": [1]}
    return [
        {
            "kind": "counterexample", "basis": B1, "flux": WAVE_FLUX,
            "group_frequencies": [[["1"]]],
            "wave": {**wave, "tau": 0.5},
            "grid": [512],
            "solver": {"t_end": 5.0, "record_times": [1.0, 2.0, 3.0, 4.0]},
            "dump_fields": True,
            "thresholds": {"min_final_ratio": 0.8, "max_final_error": 0.05},
            "output": {"prefix": "wave_counterexample"},
        },
        {
            "kind": "convergence", "basis": B1, "flux": WAVE_FLUX,
            "group_frequencies": [[["1"]]],
            "wave": wave,
            "grids": [[128], [256], [512], [1024], [2048]],
            "solver": {"t_end": 1.0},
            "thresholds": {"min_order": 0.8},
            "output": {"prefix": "wave_convergence"},
        },
        {
            "kind": "contraction", "basis": B1, "flux": BURGERS,
            "initial": {"terms": [
                _term([["0"]], {"re": 0.3}),
                _term([["1"]], _amp(rnd, 0.25)),
            ]},
            "initial_b": {"terms": [
                _term([["0"]], {"re": 0.1}),
                _term([["1"]], _amp(rnd, 0.2)),
                _term([["2"]], _amp(rnd, 0.05)),
            ]},
            "grid": [256], "steps": 200, "cfl": 0.45,
            "thresholds": {"max_step_increase": 1e-12},
            "output": {"prefix": "wave_contraction"},
        },
    ]


def lifted_nd(seed: int) -> list[dict]:
    rnd = random.Random(f"lifted_nd/{seed}")
    return [
        {
            # frequencies 1 and 2*sqrt2: lifted image is Z x 2Z, so the odd
            # second-axis probes must stay empty
            "kind": "spectrum", "basis": B2, "flux": BURGERS,
            "initial": {"terms": [
                _term([["0", "0"]], {"re": 0.3}),
                _term([["1", "0"]], _amp(rnd, 0.25)),
                _term([["0", "2"]], _amp(rnd, 0.15)),
            ]},
            "group_frequencies": [[["1", "0"]], [["0", "1"]]],
            "probes": [[0, 1], [1, 1], [2, 1], [1, 0], [0, 2], [1, 2]],
            "grid": [256, 256],
            "solver": {"t_end": 0.25, "record_times": [0.125]},
            "cube": {"radii": [25.0, 50.0, 100.0], "samples_per_unit": 16},
            "dump_fields": True,
            "thresholds": {"max_outside_coeff": 1e-6, "max_mean_drift": 1e-9,
                           "max_orbit_mean_error": 0.02},
            "output": {"prefix": "lifted_spectrum_t2"},
        },
        {
            # n=2: xi_1 = (1, sqrt2), xi_2 = (sqrt2, 1)
            "kind": "spectrum", "basis": B2,
            "flux": {"breakpoints": ["-2", "2"],
                     "pieces": [[["0", "0", "1/2"], ["0", "0", "1/4"]]]},
            "initial": {"terms": [
                _term([["0", "0"], ["0", "0"]], {"re": 0.3}),
                _term([["1", "0"], ["0", "1"]], _amp(rnd, 0.25)),
                _term([["0", "1"], ["1", "0"]], _amp(rnd, 0.2)),
            ]},
            "probes": [[0, 1], [1, 1], [2, 0], [1, 2]],
            "grid": [128, 128],
            "solver": {"t_end": 0.5, "record_times": [0.25]},
            "cube": {"radii": [8.0, 16.0, 32.0], "samples_per_unit": 16},
            "dump_fields": True,
            "thresholds": {"max_mean_drift": 1e-9, "max_orbit_mean_error": 0.02},
            "output": {"prefix": "lifted_spectrum_n2"},
        },
        {
            "kind": "decay", "basis": B3, "flux": BURGERS,
            "initial": {"terms": [
                _term([["0", "0", "0"]], {"re": 0.2}),
                _term([["1", "0", "0"]], _amp(rnd, 0.25)),
                _term([["0", "1", "0"]], _amp(rnd, 0.2)),
                _term([["0", "0", "1"]], _amp(rnd, 0.15)),
            ]},
            "grid": [48, 48, 48],
            "solver": {"t_end": 0.25, "record_times": [0.125]},
            "dump_fields": True,
            "thresholds": {"final_l1_to_mean_max": 0.6},
            "output": {"prefix": "lifted_decay_t3"},
        },
    ]


# --- decide_exact -------------------------------------------------------------

@dataclass(frozen=True)
class Instance:
    """One exact-layer problem as plain rationals.

    ``freqs[i]`` is an n x q matrix; ``pieces[p][k][d]`` a q-vector of
    coordinates of the degree-d coefficient of component k on piece p;
    ``amps[i]`` the data amplitude at ``freqs[i]``.
    """

    q: int
    n: int
    freqs: tuple
    breakpoints: tuple
    pieces: tuple
    amps: tuple
    planted: int | None


def _frac(rnd: random.Random) -> Fraction:
    return Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))


def _horner(coeffs, u: Fraction) -> list[Fraction]:
    acc = [Fraction(0)] * len(coeffs[0])
    for c in reversed(coeffs):
        acc = [a * u + ci for a, ci in zip(acc, c)]
    return acc


@dataclass(frozen=True)
class Shape:
    """The sizes of an instance; the values inside it are drawn separately."""

    q: int          # basis dimension: {1} or {1, sqrt2}
    n: int          # space dimension
    ngens: int      # generators of the spectrum, so rank <= ngens
    npieces: int
    degree: int
    want: int       # frequencies drawn
    planted: bool   # one piece is affine


def _shapes(rnd: random.Random, count: int) -> list[Shape]:
    """``count`` shapes, every size combination equally often, in seeded order.

    Each (q, n, ngens, npieces, degree) combination appears count/108 times
    and the frequency counts 1-6 and the planted third are dealt round the
    shuffled list, so the work of a sweep hardly depends on the seed.
    """
    sizes = list(itertools.product((1, 2), (1, 2), (1, 2, 3), (1, 2, 3), (3, 4, 5)))
    if count % len(sizes):
        raise ValueError(f"count must be a multiple of {len(sizes)}")
    order = sizes * (count // len(sizes))
    rnd.shuffle(order)
    return [Shape(*sz, want=1 + i % 6, planted=i % 3 == 0) for i, sz in enumerate(order)]


def _instance(rnd: random.Random, shape: Shape) -> Instance:
    q, n = shape.q, shape.n
    # integer combinations of at most three generators keep rank <= 3
    ngens, gens = shape.ngens, []
    while len(gens) < ngens:
        g = tuple(tuple(_frac(rnd) for _ in range(q)) for _ in range(n))
        if any(c for row in g for c in row):
            gens.append(g)
    want = shape.want
    freqs, seen = [], set()
    for _ in range(50):
        if len(freqs) == want:
            break
        ks = [rnd.randint(-2, 2) for _ in gens]
        f = tuple(tuple(sum((k * g[i][j] for k, g in zip(ks, gens)), Fraction(0))
                        for j in range(q)) for i in range(n))
        neg = tuple(tuple(-c for c in row) for row in f)
        if not any(c for row in f for c in row) or f in seen or neg in seen:
            continue
        seen.add(f)
        freqs.append(f)
    if not freqs:  # every draw cancelled
        freqs.append(gens[0])
    npieces = shape.npieces
    inner = sorted(rnd.sample([Fraction(k, 2) for k in range(-3, 4)], npieces - 1))
    bps = tuple([Fraction(-2)] + inner + [Fraction(2)])
    degree = shape.degree
    planted = rnd.randrange(npieces) if shape.planted else None

    def coeff(d):
        c = [_frac(rnd)] + [Fraction(0)] * (q - 1)
        if q == 2 and d >= 2 and rnd.random() < 0.3:
            c[1] = _frac(rnd)
        return c

    pieces = []
    for p in range(npieces):
        piece = []
        for k in range(n):
            comp = [coeff(d) for d in range(degree + 1)]
            if p == planted:
                comp = comp[:2] + [[Fraction(0)] * q for _ in range(degree - 1)]
            if p > 0:
                # continuity: match the left piece at the shared breakpoint
                left = _horner(pieces[p - 1][k], bps[p])
                here = _horner(comp, bps[p])
                comp[0] = [c + lv - hv for c, lv, hv in zip(comp[0], left, here)]
            piece.append(comp)
        pieces.append(piece)
    amps = tuple(cmath.rect(rnd.uniform(0.05, 0.3), rnd.uniform(0.0, 2.0 * math.pi))
                 for _ in freqs)
    return Instance(
        q=q, n=n, freqs=tuple(freqs), breakpoints=bps,
        pieces=tuple(tuple(tuple(tuple(c) for c in comp) for comp in piece)
                     for piece in pieces),
        amps=amps, planted=planted,
    )


def decide_instances(seed: int, count: int = 1080) -> list[Instance]:
    rnd = random.Random(f"decide_exact/{seed}")
    return [_instance(rnd, shape) for shape in _shapes(rnd, count)]
