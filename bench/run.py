#!/usr/bin/env python3
"""apcl benchmark: three seeded workloads, one command.

    python3 bench/run.py --workload wave_1d --seed 1 --seconds 20 --trace 0

Runs against ``src/`` of the checkout it sits in (no install needed).
``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics from the spans (see ``tracer.py``; the spans are written to
``.bench_out/``).  The last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
record the environment and the counts.  Metric names and units come from
``BENCHMARK.json``.  The number of timed passes is fixed by ``--seconds``
(``PASS_RATE``), so it does not depend on the speed of the code.
End-to-end times are corrected for the speed of the shared host with a
reference probe (``REF_PROBE_NS``); the uncorrected wall figures are
printed on the ``#`` lines.

An op is one experiment (``wave_1d``, ``lifted_nd``) or one instance
(``decide_exact``).  It fails on a refusal, a FAIL verdict or a failed
correctness gate (``gates.py``); gates run outside the timed region.

Limits of the measurement: BLAS/OpenMP threads are pinned to 1 here and in
the child interpreters, but CPUs are not pinned and the file cache is not
dropped.  Bytes per cell are computed from a model of the step, not
measured.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import filecmp  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])
# Timed passes per second of --seconds.  The count depends on --seconds
# only, never on how fast the code is, so every commit gets the same number
# of repeats.  At the parent commit on a 2-core Xeon a run's passes last
# about --seconds while the host runs at full speed, and up to twice that in
# its slow phases.  A traced run makes half as many untraced/traced pairs.
PASS_RATE = {"wave_1d": 0.5, "lifted_nd": 0.3, "decide_exact": 0.2}
MIN_PASSES = 3
DECIDE_WARMUP = 216  # instances run once before timing
# Host-speed correction.  The shared host runs everything up to 2x slower
# in phases of seconds to minutes, which no statistic over a 20-s run
# removes.  So untraced passes time a fixed reference job that never calls
# apcl (passes.host_probe) between ops, and the bench starts one around
# each set-up child.  An op's time divided by the probe time around it is
# its cost in probe units, which those phases move far less (over ten
# seeds the spread of run_s fell from 0.13-0.31 to 0.05-0.09); end-to-end
# times are reported as that cost x REF_PROBE_NS, i.e. in seconds of a host
# on which the probe takes REF_PROBE_NS.  1 ms is the fastest the probe
# ran on a 2-core Xeon, so the numbers read close to the wall times of
# that host's fast phase.  Per-layer times (traced runs) are uncorrected.
REF_PROBE_NS = 1.0e6
# ops between two probes in an untraced pass
PROBE_EVERY = {"wave_1d": 1, "lifted_nd": 1, "decide_exact": 8}


def corrected(ns: float, probe_ns: float) -> float:
    """``ns`` measured while the probe took ``probe_ns``, at reference speed."""
    return ns * REF_PROBE_NS / probe_ns


def environment(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "seed": seed,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "limits": "no CPU pinning, no file-cache drop; bytes are computed, not measured",
    }


class Setup:
    """Set-up as a user pays it, sampled in fresh interpreters.

    Each sample is one ``setup_child.py``: import ``apcl.cli`` and build the
    workload's objects from its plain inputs, which are pickled here once.
    The first child only warms the file cache; after that the bench starts
    one child after each timed pass, so the samples spread over the run.
    """

    def __init__(self, workload: str, plain: list, tmp: Path):
        path = tmp / "inputs.pickle"
        with open(path, "wb") as fh:
            pickle.dump(plain, fh)
        self.cmd = [sys.executable, str(BENCH / "setup_child.py"), workload, str(path)]
        self.setup_s: list[float] = []
        self.import_s: list[float] = []
        self.speed: list[float] = []  # host probe ns around each sample
        self._child()

    def _child(self) -> dict:
        done = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120,
                              cwd=ROOT, check=True)
        return json.loads(done.stdout.splitlines()[-1])

    def sample(self, probe):
        before = probe()
        split = self._child()
        self.speed.append((before + probe()) / 2)
        self.setup_s.append(split["setup_s"])
        self.import_s.append(split["import_s"])


def step_bytes(shape, npieces: int, ncoef: int) -> int:
    """Computed bytes one seed-style ``step`` reads and writes per cell.

    A model, not a measurement: 8 B per float64 or int64 element and 1 B
    per bool element that each numpy operation of the step reads or
    writes, with every cell on one flux piece.  Per axis: clamp 22,
    searchsorted/-1/clip 48, per other piece a mask and ``any`` 10, the own
    piece's mask, gather and scatter 44, Horner 32 + 40 per coefficient
    after the first, and the Rusanov face, differences and accumulation in
    eleven array operations, 216.  Per step: the zero divergence, the
    update and the field's min/max, 48.
    """
    axis = 22 + 48 + 10 * (npieces - 1) + 44 + 32 + 40 * (ncoef - 1) + 216
    return len(shape) * axis + 48


def quantile(values, q: int) -> float:
    """q-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Bench:
    """One run: inputs, passes, gates and counts for one workload and seed."""

    def __init__(self, workload: str, seed: int, seconds: float, tmp: Path):
        import passes

        self.passes = passes
        self.workload, self.seed, self.tmp = workload, seed, tmp
        self.npasses = max(MIN_PASSES, round(seconds * PASS_RATE[workload]))
        # failed: ops refused or wrong; wrong: ops whose output failed a gate.
        # A refusal produces no output, so it fails the op without making
        # the run incorrect; a wrong output, or a bench-level problem (tracer,
        # traced outputs differ), does.
        self.attempted = self.failed = self.wrong = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.op_ns: list[list[int]] = []  # per timed pass, per op
        self.op_speed: list[list[float]] = []  # host probe ns, same shape
        self.wave_l1: set[float] = set()
        self.last_by_mode: dict = {}  # outputs of the latest pass per mode
        self.plain = passes.plain_inputs(workload, seed)
        self.inputs = passes.build_inputs(workload, self.plain)
        if workload == "decide_exact":
            self.brute: list = [None] * len(self.inputs)
        self.setup = Setup(workload, self.plain, tmp)

    # one pass, gated ------------------------------------------------------------
    def one_pass(self, outdir: Path, tracer=None, tag: str = "", every: int = 0):
        """Run and gate one pass, probing the host every ``every`` ops.

        Returns (seconds, outputs).
        """
        import gates

        if self.workload == "decide_exact":
            el, lat, outs, speed = self.passes.decide_pass(self.inputs, tracer, tag, every)
            self.op_ns.append(lat)
            self.op_speed.append(speed)
            for i, out in enumerate(outs):
                if self.brute[i] is None and not isinstance(out, Exception):
                    self.brute[i] = gates.brute_witnesses(out.gb, self.inputs[i].pieces)
                self._count(gates.decide_gates(self.plain[i], self.inputs[i], out,
                                               self.brute[i]), out)
            return el, outs
        outdir.mkdir(parents=True, exist_ok=True)
        el, lat, reports, speed = self.passes.harness_pass(self.inputs, str(outdir), tracer,
                                                           tag, every)
        self.op_ns.append(lat)
        self.op_speed.append(speed)
        for r in reports:
            if not isinstance(r, Exception) and r.kind == "convergence":
                self.wave_l1.add(gates.wave_error(r))
            self._count(gates.report_gates(r), r)
        return el, reports

    def _count(self, fails, out):
        self.attempted += 1
        if fails:
            self.failed += 1
            self.wrong += not isinstance(out, Exception)
            self.failures += fails

    def warm_up(self):
        if self.workload == "decide_exact":
            self.passes.decide_pass(self.inputs[:DECIDE_WARMUP])
        else:
            self.passes.harness_pass(self.inputs, str(self.tmp / "warm"))

    def timed(self, modes, dirs, tracer, npasses: int, every: int = 0):
        """``npasses`` rounds of the given modes, each round followed by a set-up sample.

        Untraced passes probe the host every ``every`` ops (0: never).  With
        a tracer, the host is probed around each whole pass instead, outside
        its timing, so that traced and untraced passes compare at one speed.
        """
        times = {m: [] for m in modes}
        self.pass_probe = {m: [] for m in modes}
        self.rounds = npasses
        for k in range(npasses):
            for mode in modes:
                before = self.passes.host_probe() if tracer else 0
                if mode == "traced":
                    with tracer.installed():
                        el, outs = self.one_pass(dirs[mode], tracer, f"p{k}/")
                else:
                    el, outs = self.one_pass(dirs[mode], every=every)
                if tracer:
                    self.pass_probe[mode].append((before + self.passes.host_probe()) / 2)
                times[mode].append(el)
                self.last_by_mode[mode] = outs
            self.setup.sample(self.passes.host_probe)
        return times


def end_to_end(bench: Bench) -> dict:
    times = bench.timed(("untraced",), {"untraced": bench.tmp / "u"}, None,
                        bench.npasses, PROBE_EVERY[bench.workload])["untraced"]
    print("# pass_s = " + json.dumps(times))
    # An op's latency is the median over its repeats of its host-corrected
    # time; the number of repeats is fixed by --seconds.  p50/p99 are taken
    # across the distinct ops (the decide instances, or the three
    # experiments of a harness workload); run_s is one pass at those
    # latencies.
    per_op = [statistics.median(map(corrected, ts, ps))
              for ts, ps in zip(zip(*bench.op_ns), zip(*bench.op_speed))]
    setup = statistics.median(map(corrected, bench.setup.setup_s, bench.setup.speed))
    probes = [p for ps in bench.op_speed for p in ps] + bench.setup.speed
    print(f"# host probe ns: min {min(probes):.0f}, median {statistics.median(probes):.0f}"
          f" (reference {REF_PROBE_NS:.0f})")
    print(f"# wall, uncorrected: setup_s {statistics.median(bench.setup.setup_s)!r},"
          f" run_s at per-op minima {sum(map(min, zip(*bench.op_ns))) / 1e9!r}")
    vals = {
        "setup_s": setup,
        "run_s": sum(per_op) / 1e9,
        "op_us_p50": statistics.median(per_op) / 1e3,
        "op_us_p99": quantile(per_op, 99) / 1e3,
    }
    return {name: {"value": vals[name], "unit": unit} for name, unit in END_TO_END}


def outputs_identical(a: Path, b: Path) -> list[str]:
    """CSV and .bin files of an untraced and a traced pass, byte for byte."""
    names = sorted(p.name for p in a.iterdir() if p.suffix in (".csv", ".bin"))
    other = sorted(p.name for p in b.iterdir() if p.suffix in (".csv", ".bin"))
    if names != other:
        return [f"traced outputs {other} != untraced {names}"]
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return [f"traced pass changed {n}" for n in mismatch + errors]


def per_layer(bench: Bench) -> dict:
    from tracer import Tracer, has_ancestor, self_times

    tracer = Tracer()
    with tracer.installed():
        tracer.exp = "setup"
        bench.passes.build_inputs(bench.workload, bench.plain)
    with tracer.installed():
        _, missed = tracer.rebinding()
    bench.problems += [f"tracer left {m} unwrapped" for m in missed]
    dirs = {"untraced": bench.tmp / "u", "traced": bench.tmp / "t"}
    times = bench.timed(("untraced", "traced"), dirs, tracer,
                        max(MIN_PASSES, bench.npasses // 2))
    if bench.workload == "decide_exact":
        def outcome(outs):
            return [(o.verdict, o.coords, o.aff) if not isinstance(o, Exception) else repr(o)
                    for o in outs]
        if outcome(bench.last_by_mode["traced"]) != outcome(bench.last_by_mode["untraced"]):
            bench.problems.append("traced sweep changed a decide outcome")
    else:
        bench.problems += outputs_identical(dirs["untraced"], dirs["traced"])
    tracer.dump(str(OUT / f"trace-{bench.workload}-seed{bench.seed}.jsonl.gz"))

    spans = tracer.spans
    selfs = self_times(spans)
    npass = len(times["traced"])
    in_pass = [i for i, s in enumerate(spans) if s[4].startswith("p")]
    pass_self = [0] * npass  # library self time per traced pass, ns
    for i in in_pass:
        pass_self[int(spans[i][4][1:].split("/", 1)[0])] += selfs[i]
    by = {}
    for i, s in enumerate(spans):
        by.setdefault(s[0], []).append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def mean_ns(name, sel=None):
        idx = [i for i in by.get(name, ()) if sel is None or sel(i)]
        return sum(map(dur, idx)) / len(idx) if idx else 0.0

    def per_pass(name, f):
        return sum(f(i) for i in by.get(name, ()) if spans[i][4].startswith("p")) / npass

    def per_work(name, sel=lambda i: True, work=lambda w: w):
        idx = [i for i in by.get(name, ()) if sel(i)]
        n = sum(work(spans[i][5]) for i in idx)
        return sum(map(dur, idx)) / n if n else 0.0

    def cells(w):
        n = 1
        for x in w[0]:
            n *= x
        return n

    def dim(m):
        return lambda i: len(spans[i][5][0]) == m

    steps = [i for i in by.get("solver.step", ()) if spans[i][4].startswith("p")]
    run_steps = sum(has_ancestor(spans, i, "solver.run") for i in steps)
    run_lips = sum(has_ancestor(spans, i, "solver.run") for i in by.get("flux.lip_bound", ())
                   if spans[i][4].startswith("p"))
    step_cells = sum(cells(spans[i][5]) for i in steps)
    # Host-corrected like the end-to-end times, so that the overhead is not
    # swamped by the host's phases; a traced pass's self times get its factor.
    probe = bench.pass_probe["traced"]
    traced, untraced = (statistics.median(map(corrected, times[m], bench.pass_probe[m]))
                        for m in ("traced", "untraced"))
    vals = {
        "solver.step.ns_per_cell_2d": per_work("solver.step", dim(2), cells),
        "solver.step.ns_per_cell_3d": per_work("solver.step", dim(3), cells),
        "solver.step.us_1d": mean_ns("solver.step", dim(1)) / 1e3,
        "solver.cfl_dt.us": mean_ns("solver.cfl_dt") / 1e3,
        "solver.run.self_ms": per_pass("solver.run", lambda i: selfs[i]) / 1e6,
        "solver.exact_cell_average.ms": mean_ns("solver.exact_cell_average") / 1e6,
        "solver.steps": len(steps) / npass,
        "solver.step.computed_bytes_per_cell": (
            sum(step_bytes(*spans[i][5]) * cells(spans[i][5]) for i in steps) / step_cells
            if step_cells else 0.0),
        "flux.lip_bound.us": mean_ns("flux.lip_bound") / 1e3,
        "flux.lip_bound.calls_per_step": run_lips / run_steps if run_steps else 0.0,
        "flux.eval_component.ns_per_value": per_work("flux.eval_component"),
        "flux.nondegeneracy_check.us": mean_ns("flux.nondegeneracy_check") / 1e3,
        "flux.lift_flux.us": mean_ns("flux.lift_flux") / 1e3,
        "flux.directional.us": mean_ns("flux.directional") / 1e3,
        "flux.affine_on.us": mean_ns("flux.affine_on") / 1e3,
        "flux.PiecewiseFlux_init.us": mean_ns("flux.PiecewiseFlux_init") / 1e3,
        "flux.clamped_values": tracer.clamps.clamped,
        "freqlattice.group_basis.us": mean_ns("freqlattice.group_basis") / 1e3,
        "freqlattice.member_coords.us": mean_ns("freqlattice.member_coords") / 1e3,
        "freqlattice.integer_kernel.us": mean_ns("freqlattice.integer_kernel") / 1e3,
        "trigpoly.eval.us": mean_ns("trigpoly.eval") / 1e3,
        "lift.orbit_mean.ns_per_point": per_work("lift.orbit_mean"),
        "lift.lift_problem.us": mean_ns("lift.lift_problem") / 1e3,
        "harness.parse_config.us": mean_ns("harness.parse_config") / 1e3,
        "harness.run_experiment.self_ms":
            per_pass("harness.run_experiment", lambda i: selfs[i]) / 1e6,
        "harness.save.ms": mean_ns("harness.save") / 1e6,
        "harness.wave_l1_error": max(bench.wave_l1, default=0.0),
        "cli.import_s": statistics.median(bench.setup.import_s),
        "trace.run_s": traced,
        "trace.untraced_run_s": untraced,
        "trace.overhead_s": traced - untraced,
        "trace.span_self_s": statistics.median(map(corrected, pass_self, probe)) / 1e9,
        "trace.unspanned_s": statistics.median(
            map(corrected, (t * 1e9 - s for t, s in zip(times["traced"], pass_self)), probe)
        ) / 1e9,
        "trace.spans_per_pass": len(in_pass) / npass,
    }
    return {name: {"value": vals[name], "unit": unit} for name, unit in PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "apcl" / "__init__.py").is_file():
        print(f"error: no apcl package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import apcl.cli  # noqa: F401  (loads every apcl module before tracing)
    import gates

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        bench = Bench(args.workload, args.seed, args.seconds, tmp)
        bench.warm_up()
        metrics = per_layer(bench) if args.trace else end_to_end(bench)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("# env " + json.dumps(environment(args.seed)))
    print(f"# passes = {bench.rounds} per mode, setup samples = {len(bench.setup.setup_s)}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']!r} {m['unit']}")
    print(f"# ops = {bench.attempted} count")
    print(f"# ops_failed = {bench.failed} count")
    if bench.wave_l1:
        print(f"# wave_l1_error = {max(bench.wave_l1)!r} (gate: <= "
              f"{gates.WAVE_L1_SLACK} x {gates.WAVE_L1_REFERENCE!r})")
    for f in list(dict.fromkeys(bench.problems + bench.failures))[:20]:
        print(f"# FAIL {f}")
    correct = not bench.problems and bench.wrong == 0
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
