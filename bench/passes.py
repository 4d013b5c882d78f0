"""What one timed pass of each workload does, and the inputs it needs.

Calls go through module attributes (``fx.lift_flux``, not a name imported
at load time) so the tracer's rebinding reaches the bench's own calls too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import apcl.flux as fx
import apcl.freqlattice as fl
import apcl.harness as hs
import apcl.lift as lf
import apcl.trigpoly as tp
from apcl.solver import CflError, CounterexampleError

import workloads

BASES = {1: fl.FrequencyBasis.rational(), 2: fl.FrequencyBasis.with_sqrt(2)}


def plain_inputs(workload: str, seed: int) -> list:
    """The seeded inputs as plain data: config dicts, or decide instances."""
    if workload == "decide_exact":
        return workloads.decide_instances(seed)
    return getattr(workloads, workload)(seed)


def build_inputs(workload: str, plain: list) -> list:
    """The program's own objects for ``plain``: parsed configs, or built instances.

    This is the part of set-up that ``setup_s`` times, after the import.
    """
    if workload == "decide_exact":
        return [build_instance(i) for i in plain]
    return [hs.parse_config(d) for d in plain]


def harness_inputs(workload: str, seed: int) -> list:
    """Parsed experiment configs for ``wave_1d`` or ``lifted_nd``."""
    return build_inputs(workload, plain_inputs(workload, seed))


# what the CLI reports as a refusal (exit 3)
REFUSALS = (CflError, CounterexampleError, ValueError, AssertionError)


PROBE_X = np.linspace(0.0, 1.0, 1 << 15)


def host_probe() -> int:
    """Nanoseconds of a fixed reference job that never calls apcl.

    Python integer arithmetic plus numpy ufuncs on a 256 KiB array, about
    2 ms.  Timed between ops, it follows the speed of the shared host,
    which changes by up to 2x in phases of seconds.
    """
    clock = time.perf_counter_ns
    np.sin(PROBE_X)  # untimed: brings the array back into cache after an op
    s = clock()
    acc = 0
    for i in range(6000):
        acc += i * i
    for _ in range(4):
        np.sin(PROBE_X)
    return clock() - s


def _sweep(items, op, tracer, tag, probe_every):
    """Run ``op`` on each item, timing each call.

    Returns (seconds, per-op ns, outputs, per-op probe ns).  A refused op
    leaves its exception in place of its output.  With ``probe_every`` > 0
    the host probe runs before the first op and after every
    ``probe_every`` ops, and each op gets the mean of the two probes
    around its group; otherwise the probe list is empty.
    """
    clock = time.perf_counter_ns
    lat, outs, speed = [], [], []
    t0 = time.perf_counter()
    before = host_probe() if probe_every else 0
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.exp = f"{tag}{getattr(item, 'prefix', i)}"
        s = clock()
        try:
            out = op(item)
        except REFUSALS as e:
            out = e
        lat.append(clock() - s)
        outs.append(out)
        if probe_every and ((i + 1) % probe_every == 0 or i + 1 == len(items)):
            after = host_probe()
            speed += [(before + after) / 2] * (i + 1 - len(speed))
            before = after
    return time.perf_counter() - t0, lat, outs, speed


def harness_pass(cfgs, outdir: str, tracer=None, tag: str = "", probe_every: int = 0):
    """run_experiment + RunReport.save per config; see ``_sweep``."""
    def op(cfg):
        report = hs.run_experiment(cfg)
        report.save(outdir, prefix=cfg.prefix)
        return report

    return _sweep(cfgs, op, tracer, tag, probe_every)


@dataclass
class Built:
    """An instance as the program's own objects, built before timing."""

    basis: object
    freqs: list
    breakpoints: tuple
    pieces: list
    u0: object


def build_instance(inst) -> Built:
    basis = BASES[inst.q]
    freqs = [fl.Frequency.of(basis, rows) for rows in inst.freqs]
    pieces = [[[basis.real(c) for c in comp] for comp in piece] for piece in inst.pieces]
    u0 = tp.TrigPoly(basis, inst.n, list(zip(freqs, inst.amps)))
    return Built(basis, freqs, inst.breakpoints, pieces, u0)


def decide_inputs(seed: int):
    insts = plain_inputs("decide_exact", seed)
    return insts, build_inputs("decide_exact", insts)


@dataclass
class Decided:
    gb: object
    coords: list
    verdict: object
    aff: object
    lifted: object
    problem: object


def decide(b: Built) -> Decided:
    """One instance: the exact layer end to end, as a user of it would call it."""
    gb = fl.group_basis(b.freqs)
    coords = [fl.member_coords(f, gb) for f in b.freqs]
    flux = fx.PiecewiseFlux(b.basis, b.breakpoints, b.pieces)
    verdict = fx.nondegeneracy_check(flux, gb)
    lifted = fx.lift_flux(flux, gb)
    if verdict.nondegenerate:
        kbar, piece = (1,) + (0,) * (gb.rank - 1), 0
    else:
        kbar, piece = verdict.kbar, verdict.piece
    aff = fx.affine_on(fx.directional(flux, kbar, gb),
                       flux.breakpoints[piece], flux.breakpoints[piece + 1])
    problem = lf.lift_problem(b.u0, flux)
    return Decided(gb, coords, verdict, aff, lifted, problem)


def decide_pass(built, tracer=None, tag: str = "", probe_every: int = 0):
    """One sweep over all instances; see ``_sweep``."""
    return _sweep(built, decide, tracer, tag, probe_every)
