"""Correctness gates, run outside the timed region.

Each gate returns a list of failure messages; an op (one experiment or
one decide instance) fails when any of its gates returns a message.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

# Absolute tolerances on O(1) data: roundoff of a conservative update over
# a few thousand steps stays orders of magnitude below these.
MASS_TOL = 1e-11
RANGE_TOL = 1e-12
BRUTE_BOX = 2
# Finest-grid L1 error of the wave_1d convergence ladder at the seed commit.
# It does not depend on the seed: the wave's width is fixed and the scheme
# is linear on the affine piece.  A change may lower it; more than 2% above
# fails the op, so speed cannot quietly cost accuracy.
WAVE_L1_REFERENCE = 0.00042324150238955
WAVE_L1_SLACK = 1.02


def verdict_gate(report) -> list[str]:
    """Every configured harness threshold holds; an empty set is vacuous."""
    if not report.verdicts:
        return [f"{report.kind}: no verdicts (vacuous PASS)"]
    return [f"{report.kind}: verdict {k} FAIL"
            for k, ok in sorted(report.verdicts.items()) if not ok]


def invariant_gate(report) -> list[str]:
    """Mass drift within roundoff; min/max inside the initial range.

    Checked at every record row and on the dumped final field, which must
    also agree with the last row.
    """
    out = []
    for name, (rows, columns) in sorted(report.tables.items()):
        if not {"mass", "min", "max"} <= set(columns):
            continue
        m0, lo, hi = rows[0]["mass"], rows[0]["min"], rows[0]["max"]
        for r in rows:
            if abs(r["mass"] - m0) > MASS_TOL:
                out.append(f"{report.kind}.{name}: mass drift {r['mass'] - m0:.3e} at t={r['t']}")
            if r["min"] < lo - RANGE_TOL or r["max"] > hi + RANGE_TOL:
                out.append(f"{report.kind}.{name}: range [{r['min']}, {r['max']}] "
                           f"leaves [{lo}, {hi}] at t={r['t']}")
        final = report.fields.get("final")
        if final is not None:
            v = final.values
            mass = final.grid.cell_volume * float(np.sum(v))
            if abs(mass - m0) > MASS_TOL or abs(mass - rows[-1]["mass"]) > MASS_TOL:
                out.append(f"{report.kind}: final field mass {mass!r} != {rows[-1]['mass']!r}")
            if v.min() < lo - RANGE_TOL or v.max() > hi + RANGE_TOL:
                out.append(f"{report.kind}: final field leaves [{lo}, {hi}]")
    return out


def wave_error(report) -> float:
    """Finest-grid L1 error of a convergence report."""
    return report.tables["errors"][0][-1]["l1_error"]


def accuracy_gate(report) -> list[str]:
    if report.kind != "convergence":
        return []
    err = wave_error(report)
    if err > WAVE_L1_REFERENCE * WAVE_L1_SLACK:
        return [f"finest-grid L1 error {err!r} > {WAVE_L1_SLACK} x {WAVE_L1_REFERENCE!r}"]
    return []


def table_gate(report) -> list[str]:
    """The property each verdict summarises, re-read from the report's own table.

    Convergence and contraction reports expose no field and no mass/min/max
    columns, so ``invariant_gate`` cannot see them; this checks their rows
    instead: errors fall on every refinement of the ladder, and the L1
    distance of the contraction pair never grows by more than roundoff.
    """
    out = []
    if report.kind == "convergence":
        errs = [r["l1_error"] for r in report.tables["errors"][0]]
        if len(errs) < 2 or any(b >= a for a, b in zip(errs, errs[1:])):
            out.append(f"convergence: l1 errors {errs} do not fall with h")
    elif report.kind == "contraction":
        dist = [r["l1_distance"] for r in report.tables["series"][0]]
        grow = max((b - a for a, b in zip(dist, dist[1:])), default=0.0)
        if len(dist) < 2 or grow > RANGE_TOL:
            out.append(f"contraction: L1 distance grows by {grow:.3e} in one step")
    return out


def report_gates(report) -> list[str]:
    if isinstance(report, Exception):
        return [f"refused: {type(report).__name__}: {report}"]
    return (verdict_gate(report) + invariant_gate(report) + table_gate(report)
            + accuracy_gate(report))


# --- decide_exact ---------------------------------------------------------------

def brute_witnesses(gb, pieces, box: int = BRUTE_BOX) -> list[tuple[int, tuple[int, ...]]]:
    """(piece, kbar) pairs with 0 < |kbar|_inf <= box that kill degree >= 2.

    Independent of the decider: the dots lambda_j . c_d are formed here from
    RealQ products and every kbar in the box is tried directly.
    """
    m = gb.rank
    found = []
    for p, piece in enumerate(pieces):
        rows = []
        deg = max(len(comp) for comp in piece)
        for d in range(2, deg):
            dots = []
            for lam in gb.frequencies:
                acc = None
                for k, comp in enumerate(piece):
                    if d < len(comp):
                        term = lam.coords[k] * comp[d]
                        acc = term if acc is None else acc + term
                dots.append(acc.coeffs)
            for qi in range(len(dots[0])):
                row = [dot[qi] for dot in dots]
                den = math.lcm(*(c.denominator for c in row))
                rows.append([int(c * den) for c in row])
        for kbar in itertools.product(range(-box, box + 1), repeat=m):
            if any(kbar) and all(sum(r * k for r, k in zip(row, kbar)) == 0 for row in rows):
                found.append((p, kbar))
    return found


def decide_gates(inst, built, out, brute) -> list[str]:
    """Gates for one decide instance.

    ``brute`` is the precomputed box enumeration for this instance.
    """
    if isinstance(out, Exception):
        return [f"refused: {type(out).__name__}: {out}"]
    gb, coords, verdict, aff = out.gb, out.coords, out.verdict, out.aff
    fails = []
    # group members reconstruct exactly
    for f, k in zip(built.freqs, coords):
        if k is None or len(k) != gb.rank:
            fails.append(f"member_coords {k} for a spectrum member")
            continue
        acc = [[Fraction(0)] * built.basis.dim for _ in range(f.n)]
        for kj, g in zip(k, gb.frequencies):
            for i, c in enumerate(g.coords):
                acc[i] = [a + kj * x for a, x in zip(acc[i], c.coeffs)]
        if [list(c.coeffs) for c in f.coords] != acc:
            fails.append(f"coords {k} do not reconstruct {f.floats()}")
    # verdict agrees with enumeration and with the planted affine piece
    if brute and verdict.nondegenerate:
        fails.append(f"nondegenerate, but kbar={brute[0][1]} flattens piece {brute[0][0]}")
    if inst.planted is not None and verdict.nondegenerate:
        fails.append(f"nondegenerate despite planted affine piece {inst.planted}")
    if verdict.nondegenerate and aff is not None:
        # no direction flattens any piece, e1 on piece 0 included
        fails.append(f"nondegenerate, but e1 is affine on piece 0: {aff}")
    if not verdict.nondegenerate:
        # degenerate witnesses pass affine_on, and the enumeration's own
        # matrix agrees when the witness lies in its box
        if aff is None:
            fails.append(f"witness kbar={verdict.kbar} on piece {verdict.piece} not affine")
        if (max(map(abs, verdict.kbar)) <= BRUTE_BOX
                and (verdict.piece, tuple(verdict.kbar)) not in brute):
            fails.append(f"witness kbar={verdict.kbar} rejected by enumeration")
    return fails
