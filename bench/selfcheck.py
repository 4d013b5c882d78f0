#!/usr/bin/env python3
"""Checks of the bench itself; prints one PASS/FAIL line each, exits 1 on any FAIL.

    python3 bench/selfcheck.py

* every gate records a failure when fed a deliberately corrupted result
  (flipped verdict, perturbed field, broken coordinates ...), and passes
  the genuine one;
* tracing only observes: a traced pass writes CSV and .bin outputs that
  are byte-identical to an untraced pass, and decide outcomes are equal;
* every traced name is rebound in each apcl module that imported it, and
  inner calls (``lip_bound`` under ``step`` and ``cfl_dt``) get spans;
* ``layers.json`` maps every per-layer metric of ``BENCHMARK.json``.
"""

import copy
import dataclasses
import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import apcl.cli  # noqa: E402,F401
from apcl.flux import NdVerdict  # noqa: E402
from apcl.solver import CellField, CflError  # noqa: E402

import gates  # noqa: E402
import passes  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, has_ancestor  # noqa: E402

RESULTS = []


def check(name: str, ok: bool, detail: str = ""):
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}", flush=True)


def must_fail(name: str, fails: list[str]):
    check(f"gate rejects {name}", bool(fails), fails[0] if fails else "vacuous PASS")


def harness_gates(tmp: Path):
    cfgs = passes.harness_inputs("wave_1d", 1)
    _, _, reports, _ = passes.harness_pass(cfgs, str(tmp / "gates"))
    cx, conv, contr = reports
    for r in reports:
        check(f"genuine {r.kind} report passes", not gates.report_gates(r),
              "; ".join(gates.report_gates(r)))

    bad = copy.copy(cx)
    bad.verdicts = {k: False for k in cx.verdicts}
    must_fail("a flipped verdict", gates.report_gates(bad))
    bad = copy.copy(cx)
    bad.verdicts = {}
    must_fail("an empty verdict set", gates.report_gates(bad))
    must_fail("a refusal", gates.report_gates(CflError("CFL violation")))

    field = cx.fields["final"]
    v = field.values.copy()
    v[7] += 1e-6
    bad = copy.copy(cx)
    bad.fields = {"final": CellField(field.grid, v)}
    must_fail("a perturbed field (mass)", gates.report_gates(bad))
    v = field.values.copy()
    v[7] += 0.5
    v[8] -= 0.5
    bad.fields = {"final": CellField(field.grid, v)}
    must_fail("a perturbed field (max principle)", gates.report_gates(bad))

    rows, cols = cx.tables["series"]
    bad = copy.copy(cx)
    bad.tables = {"series": ([dict(r) for r in rows], cols)}
    bad.tables["series"][0][2]["mass"] += 1e-9
    must_fail("mass drift at a record time", gates.report_gates(bad))
    bad.tables = {"series": ([dict(r) for r in rows], cols)}
    bad.tables["series"][0][3]["min"] = rows[0]["min"] - 1e-6
    must_fail("a record-time minimum below the initial range", gates.report_gates(bad))

    rows, cols = conv.tables["errors"]
    bad = copy.copy(conv)
    bad.tables = {"errors": ([dict(r) for r in rows], cols)}
    bad.tables["errors"][0][-1]["l1_error"] *= 1.05
    must_fail("a 5% less accurate wave", gates.report_gates(bad))
    bad.tables = {"errors": ([dict(r) for r in rows], cols)}
    bad.tables["errors"][0][2]["l1_error"] = rows[1]["l1_error"] * 1.01
    must_fail("a convergence ladder whose error rises", gates.report_gates(bad))

    rows, cols = contr.tables["series"]
    bad = copy.copy(contr)
    bad.tables = {"series": ([dict(r) for r in rows], cols)}
    bad.tables["series"][0][50]["l1_distance"] = rows[49]["l1_distance"] + 1e-9
    must_fail("a contraction pair whose distance grows", gates.report_gates(bad))


def decide_gates():
    insts, built = passes.decide_inputs(1)
    insts, built = insts[:300], built[:300]
    genuine = 0
    deg = nondeg = None
    for inst, b in zip(insts, built):
        out = passes.decide(b)
        brute = gates.brute_witnesses(out.gb, b.pieces)
        genuine += not gates.decide_gates(inst, b, out, brute)
        if not out.verdict.nondegenerate and brute and deg is None:
            deg = (inst, b, out, brute)
        if out.verdict.nondegenerate and nondeg is None:
            nondeg = (inst, b, out, brute)
    check("genuine decide outcomes pass", genuine == len(insts), f"{genuine}/{len(insts)}")

    inst, b, out, brute = deg
    flipped = dataclasses.replace(out, verdict=NdVerdict(nondegenerate=True))
    must_fail("a degenerate verdict flipped to nondegenerate",
              gates.decide_gates(inst, b, flipped, brute))
    must_fail("a witness that fails affine_on",
              gates.decide_gates(inst, b, dataclasses.replace(out, aff=None), brute))
    k = out.coords[0]
    broken = dataclasses.replace(out, coords=[(k[0] + 1,) + k[1:]] + out.coords[1:])
    must_fail("member coordinates that do not reconstruct",
              gates.decide_gates(inst, b, broken, brute))

    inst, b, out, brute = nondeg
    m = out.gb.rank
    bogus = NdVerdict(nondegenerate=False, kbar=(1,) + (0,) * (m - 1), piece=0,
                      interval=(b.breakpoints[0], b.breakpoints[1]), tau=0.0, c=0.0)
    must_fail("a nondegenerate verdict flipped to degenerate",
              gates.decide_gates(inst, b, dataclasses.replace(out, verdict=bogus), brute))
    must_fail("a nondegenerate verdict with an affine e1 direction",
              gates.decide_gates(inst, b, dataclasses.replace(out, aff=(0.0, 0.5)), brute))


def tracing_observes(tmp: Path):
    cfgs = passes.harness_inputs("lifted_nd", 1) + passes.harness_inputs("wave_1d", 1)[:1]
    passes.harness_pass(cfgs, str(tmp / "u"))
    tracer = Tracer()
    with tracer.installed():
        where, missed = tracer.rebinding()
        passes.harness_pass(cfgs, str(tmp / "t"), tracer, "p0/")
    names = [p for p in (tmp / "u").iterdir() if p.suffix in (".csv", ".bin")]
    differ = run.outputs_identical(tmp / "u", tmp / "t")
    check("traced pass writes byte-identical CSV and .bin outputs",
          bool(names) and not differ, f"{len(names)} files; {'; '.join(differ)}")
    check("no traced name left unwrapped in any apcl module", not missed, ", ".join(missed))
    expect = {
        "apcl.flux.lip_bound": {"apcl.flux", "apcl.solver", "apcl.harness"},
        "apcl.solver.run": {"apcl.solver", "apcl.harness"},
        "apcl.solver.step": {"apcl.solver", "apcl.harness"},
        "apcl.freqlattice.group_basis": {"apcl.freqlattice", "apcl.lift", "apcl.harness"},
        "apcl.freqlattice.member_coords": {"apcl.freqlattice", "apcl.lift"},
        "apcl.freqlattice.integer_kernel": {"apcl.freqlattice", "apcl.flux"},
        "apcl.flux.lift_flux": {"apcl.flux", "apcl.lift", "apcl.harness"},
        "apcl.lift.lift_problem": {"apcl.lift", "apcl.harness"},
    }
    for qual, mods in expect.items():
        got = set(where.get(qual, ()))
        check(f"{qual} rebound in {sorted(mods)}", mods <= got, f"got {sorted(got)}")
    for qual in ("apcl.flux.PiecewiseFlux.eval_component", "apcl.lift.LiftedProblem.orbit_mean",
                 "apcl.harness.RunReport.save", "apcl.trigpoly.TrigPoly.eval"):
        check(f"{qual} patched on its class", qual in where)

    spans = tracer.spans
    by = {}
    for i, s in enumerate(spans):
        by.setdefault(s[0], []).append(i)
    steps = [i for i in by["solver.step"] if has_ancestor(spans, i, "solver.run")]
    lips = [i for i in by["flux.lip_bound"] if has_ancestor(spans, i, "solver.run")]
    under_step = sum(spans[spans[i][3]][0] == "solver.step" for i in lips)
    under_cfl = sum(spans[spans[i][3]][0] == "solver.cfl_dt" for i in lips)
    check("inner lip_bound calls are timed under step and cfl_dt",
          under_step == under_cfl == len(steps) > 0,
          f"{len(steps)} steps, {under_step} under step, {under_cfl} under cfl_dt")
    evals = sum(spans[spans[i][3]][0] == "solver.step" for i in by["flux.eval_component"])
    check("eval_component is timed inside every step", evals >= len(steps))

    insts, built = passes.decide_inputs(2)
    built = built[:100]
    _, _, plain, _ = passes.decide_pass(built)
    with Tracer().installed() as t:
        _, _, traced, _ = passes.decide_pass(built, t, "p0/")
    same = all((a.verdict, a.coords, a.aff) == (b.verdict, b.coords, b.aff)
               for a, b in zip(plain, traced))
    check("traced decide sweep gives the same outcomes", same)


def layer_map():
    layers = json.loads((BENCH / "layers.json").read_text())
    check("layers.json maps every per-layer metric",
          sorted(layers["metrics"]) == sorted(n for n, _ in run.PER_LAYER),
          str(sorted(set(n for n, _ in run.PER_LAYER) ^ set(layers["metrics"]))))


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=run.OUT))
    try:
        harness_gates(tmp)
        decide_gates()
        tracing_observes(tmp)
        layer_map()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{sum(RESULTS)}/{len(RESULTS)} checks passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    raise SystemExit(main())
