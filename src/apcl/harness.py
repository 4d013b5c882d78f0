"""Experiment harness: JSON configs in, deterministic CSV/SVG/JSON out.

Rationals travel as strings "p/q" in configs; frequencies as n x q matrices
of such strings over the declared basis.  Identical configs produce byte
identical CSV and SVG files; wall-clock time appears only in the JSON
report.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from xml.sax.saxutils import escape

import numpy as np

from . import __version__
from .flux import PiecewiseFlux, lift_flux, lip_bound, nondegeneracy_check
from .freqlattice import Frequency, FrequencyBasis, group_basis, in_lattice
from .lift import lift_problem
from .solver import (
    SolverConfig,
    TorusGrid,
    cfl_dt,
    exact_cell_average,
    exact_counterexample,
    fourier_coeff,
    l1_distance,
    run,
    step,
    write_field,
)
from .trigpoly import TrigPoly

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunReport",
    "load_config",
    "parse_config",
    "run_experiment",
    "write_csv",
    "render_svg",
]

# the experiment kinds, each with the threshold names it evaluates;
# max_orbit_mean_error also needs a cube
THRESHOLDS = {
    "check-flux": ("expect",),
    "decay": ("final_l1_to_mean_max",),
    "contraction": ("max_step_increase",),
    "counterexample": ("min_final_ratio", "max_final_error"),
    "convergence": ("min_order",),
    "spectrum": ("max_outside_coeff", "max_mean_drift", "max_orbit_mean_error"),
}
KINDS = tuple(THRESHOLDS)


class ConfigError(ValueError):
    """Config validation failure; message starts with the field path."""

    def __init__(self, path: str, msg: str):
        super().__init__(f"{path}: {msg}")
        self.path = path


def _need(d, key, path, typ=None):
    if not isinstance(d, dict):
        raise ConfigError(path, f"expected an object, got {type(d).__name__}")
    sub = f"{path}.{key}" if path else key
    if key not in d:
        raise ConfigError(sub, "missing required field")
    v = d[key]
    if typ is not None and not isinstance(v, typ):
        raise ConfigError(sub, f"expected {typ.__name__}, got {type(v).__name__}")
    return v


def _fraction(v, path) -> Fraction:
    if isinstance(v, bool):
        raise ConfigError(path, "expected a rational string, got a boolean")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as e:
            raise ConfigError(path, f"not a rational: {v!r} ({e})")
    raise ConfigError(path, f"expected a rational string like \"1/2\", got {v!r}")


def _real(v, path) -> float:
    """A JSON number or a rational string, as a finite float."""
    try:
        x = v if isinstance(v, float) else float(_fraction(v, path))
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(path, f"expected a finite number, got {v!r}")
    return x


def _int(v, path) -> int:
    """A JSON integer or an integral rational string; never a boolean or a float."""
    f = _fraction(v, path)
    if f.denominator != 1:
        raise ConfigError(path, f"expected an integer, got {v!r}")
    return int(f)


def _ints(v, path) -> tuple[int, ...]:
    if not isinstance(v, list):
        raise ConfigError(path, f"expected a list of integers, got {v!r}")
    return tuple(_int(x, f"{path}[{i}]") for i, x in enumerate(v))


def _reals(v, path) -> tuple[float, ...]:
    if not isinstance(v, list):
        raise ConfigError(path, f"expected a list of numbers, got {v!r}")
    return tuple(_real(x, f"{path}[{i}]") for i, x in enumerate(v))


def _parse_basis(d, path) -> FrequencyBasis:
    labels = _need(d, "labels", path, list)
    values = _need(d, "values", path, list)
    products = None
    if "products" in d:
        products = {}
        for i, entry in enumerate(d["products"]):
            p = f"{path}.products[{i}]"
            if not (isinstance(entry, list) and len(entry) == 3
                    and isinstance(entry[2], list)):
                raise ConfigError(p, "expected [i, j, [coords...]]")
            ij = (_int(entry[0], f"{p}[0]"), _int(entry[1], f"{p}[1]"))
            if not all(1 <= i < len(values) for i in ij):
                raise ConfigError(p, f"indices must name irrational basis elements "
                                     f"1..{len(values) - 1}")
            products[ij] = tuple(
                _fraction(c, f"{p}[2][{k}]") for k, c in enumerate(entry[2])
            )
    try:
        return FrequencyBasis(tuple(labels), tuple(values), products)
    except ValueError as e:
        raise ConfigError(path, str(e))


def _parse_frequency(mat, basis, path) -> Frequency:
    if not isinstance(mat, list) or not mat or not all(isinstance(r, list) for r in mat):
        raise ConfigError(path, "expected a matrix [[p/q, ...], ...] of rationals")
    rows = []
    for i, r in enumerate(mat):
        if len(r) != basis.dim:
            raise ConfigError(f"{path}[{i}]", f"expected {basis.dim} coordinates")
        rows.append([_fraction(c, f"{path}[{i}][{j}]") for j, c in enumerate(r)])
    return Frequency.of(basis, rows)


def _parse_trigpoly(d, basis, path) -> TrigPoly:
    terms = _need(d, "terms", path, list)
    if not terms:
        raise ConfigError(f"{path}.terms", "need at least one term")
    parsed = []
    n = None
    for i, t in enumerate(terms):
        p = f"{path}.terms[{i}]"
        freq = _parse_frequency(_need(t, "frequency", p, list), basis, f"{p}.frequency")
        if n is None:
            n = freq.n
        elif freq.n != n:
            raise ConfigError(f"{p}.frequency", f"dimension {freq.n} != {n}")
        re = _real(t.get("re", 0.0), f"{p}.re")
        im = _real(t.get("im", 0.0), f"{p}.im")
        parsed.append((freq, complex(re, im)))
    try:
        return TrigPoly(basis, n, parsed)
    except ValueError as e:
        raise ConfigError(path, str(e))


def _parse_flux(d, basis, path) -> PiecewiseFlux:
    bps = [_fraction(b, f"{path}.breakpoints[{i}]")
           for i, b in enumerate(_need(d, "breakpoints", path, list))]
    pieces_raw = _need(d, "pieces", path, list)
    pieces = []
    for p, piece in enumerate(pieces_raw):
        if not isinstance(piece, list):
            raise ConfigError(f"{path}.pieces[{p}]", "expected a list of components")
        comps = []
        for k, comp in enumerate(piece):
            if not isinstance(comp, list):
                raise ConfigError(f"{path}.pieces[{p}][{k}]", "expected a coefficient list")
            coeffs = []
            for dgr, c in enumerate(comp):
                cp = f"{path}.pieces[{p}][{k}][{dgr}]"
                if isinstance(c, list):
                    if len(c) != basis.dim:
                        raise ConfigError(cp, f"expected {basis.dim} coordinates")
                    coeffs.append(basis.real([_fraction(x, cp) for x in c]))
                else:
                    coeffs.append(basis.from_rational(_fraction(c, cp)))
            comps.append(coeffs)
        pieces.append(comps)
    urange = None
    if "range" in d:
        urange = _reals(d["range"], f"{path}.range")
        if len(urange) != 2:
            raise ConfigError(f"{path}.range", "expected [lo, hi]")
    try:
        return PiecewiseFlux(basis, bps, pieces, urange)
    except ValueError as e:
        raise ConfigError(path, str(e))


def _parse_grid(v, path) -> TorusGrid:
    if not isinstance(v, list) or not v:
        raise ConfigError(path, "expected a list of cell counts")
    shape = _ints(v, path)
    try:
        return TorusGrid(shape)
    except ValueError as e:
        raise ConfigError(path, str(e))


def _parse_solver(d, path) -> SolverConfig:
    t_end = _real(_need(d, "t_end", path), f"{path}.t_end")
    cfl = _real(d.get("cfl", 0.45), f"{path}.cfl")
    record_times = _reals(d.get("record_times", []), f"{path}.record_times")
    try:
        return SolverConfig(t_end=t_end, cfl=cfl, record_times=record_times)
    except ValueError as e:
        raise ConfigError(path, str(e))


def _parse_wave(d, path) -> dict:
    a = _fraction(_need(d, "a", path), f"{path}.a")
    b = _fraction(_need(d, "b", path), f"{path}.b")
    kbar = _ints(_need(d, "kbar", path), f"{path}.kbar")
    if not a < b:
        raise ConfigError(path, "need a < b")
    return {
        "a": a,
        "b": b,
        "kbar": kbar,
        "tau": _real(d["tau"], f"{path}.tau") if "tau" in d else None,
    }


def _parse_thresholds(d, path, kind: str, cube: bool) -> dict:
    """Every bound a finite number; ``expect`` one of the two verdict names.

    A name the run would not evaluate (a typo, another kind's threshold,
    an orbit-mean bound without a cube) is refused: it would give no
    verdict, and a config with no other threshold would pass vacuously.
    """
    if not isinstance(d, dict):
        raise ConfigError(path, "expected an object")
    known = [t for t in THRESHOLDS[kind] if cube or t != "max_orbit_mean_error"]
    out = {}
    for name, v in d.items():
        if name not in known:
            why = "needs a cube" if name in THRESHOLDS[kind] else \
                f"not evaluated by kind {kind!r}"
            raise ConfigError(f"{path}.{name}", f"{why}; expected one of {known}")
        if name == "expect":
            if v not in ("degenerate", "nondegenerate"):
                raise ConfigError(f"{path}.expect",
                                  f"expected \"degenerate\" or \"nondegenerate\", got {v!r}")
            out[name] = v
        else:
            out[name] = _real(v, f"{path}.{name}")
    return out


def _parse_prefix(d, path) -> str:
    """A file-name stem inside the output directory.

    Path separators (so also absolute paths), ``..`` and NUL are refused:
    outputs are written as ``{prefix}_{name}`` inside ``--out``.
    """
    if not isinstance(d, dict):
        raise ConfigError("output", f"expected an object, got {type(d).__name__}")
    prefix = d.get("prefix", "")
    if not isinstance(prefix, str):
        raise ConfigError(path, f"expected a string, got {prefix!r}")
    if prefix == ".." or any(c in prefix for c in "/\\\0"):
        raise ConfigError(path, f"must be a plain file-name stem inside --out, got {prefix!r}")
    return prefix


@dataclass
class ExperimentConfig:
    kind: str
    raw: dict
    basis: FrequencyBasis
    flux: PiecewiseFlux
    initial: TrigPoly | None = None
    initial_b: TrigPoly | None = None
    group_frequencies: tuple[Frequency, ...] | None = None
    grid: TorusGrid | None = None
    grids: tuple[TorusGrid, ...] | None = None
    solver: SolverConfig | None = None
    steps: int = 200
    cfl: float = 0.45
    wave: dict | None = None
    probes: tuple[tuple[int, ...], ...] | None = None
    offset: tuple[float, ...] | None = None
    thresholds: dict = field(default_factory=dict)
    prefix: str = ""


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
    except OSError as e:
        raise ConfigError(path, f"cannot read config: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(path, f"invalid JSON: {e}")
    if not isinstance(d, dict):
        raise ConfigError(path, "top-level config must be an object")
    return d


def parse_config(d: dict, kind: str | None = None) -> ExperimentConfig:
    cfg_kind = d.get("kind", kind)
    if cfg_kind is None:
        raise ConfigError("kind", "missing required field")
    if kind is not None and cfg_kind != kind:
        raise ConfigError("kind", f"config says {cfg_kind!r} but {kind!r} was requested")
    if cfg_kind not in KINDS:
        raise ConfigError("kind", f"unknown kind {cfg_kind!r}; expected one of {KINDS}")
    basis = _parse_basis(_need(d, "basis", "", dict), "basis")
    flux = _parse_flux(_need(d, "flux", "", dict), basis, "flux")
    cfg = ExperimentConfig(kind=cfg_kind, raw=d, basis=basis, flux=flux)
    if "initial" in d:
        cfg.initial = _parse_trigpoly(d["initial"], basis, "initial")
    if "initial_b" in d:
        cfg.initial_b = _parse_trigpoly(d["initial_b"], basis, "initial_b")
    if "group_frequencies" in d:
        gfs = d["group_frequencies"]
        if not isinstance(gfs, list) or not gfs:
            raise ConfigError("group_frequencies", "expected a non-empty list")
        cfg.group_frequencies = tuple(
            _parse_frequency(m, basis, f"group_frequencies[{i}]") for i, m in enumerate(gfs)
        )
    if "grid" in d:
        cfg.grid = _parse_grid(d["grid"], "grid")
    if "grids" in d:
        if not isinstance(d["grids"], list) or len(d["grids"]) < 2:
            raise ConfigError("grids", "expected a list of at least two grids")
        cfg.grids = tuple(_parse_grid(g, f"grids[{i}]") for i, g in enumerate(d["grids"]))
    if "solver" in d:
        cfg.solver = _parse_solver(d["solver"], "solver")
        cfg.cfl = cfg.solver.cfl
    if "steps" in d:
        cfg.steps = _int(d["steps"], "steps")
        if cfg.steps < 1:
            raise ConfigError("steps", "need at least one step")
    if "cfl" in d:
        cfg.cfl = _real(d["cfl"], "cfl")
        if not 0.0 < cfg.cfl <= 0.5:
            raise ConfigError("cfl", "must lie in (0, 1/2]")
    if "wave" in d:
        cfg.wave = _parse_wave(d["wave"], "wave")
    if "probes" in d:
        if not isinstance(d["probes"], list) or not d["probes"]:
            raise ConfigError("probes", "expected a non-empty list of integer vectors")
        cfg.probes = tuple(_ints(p, f"probes[{i}]") for i, p in enumerate(d["probes"]))
    if "offset" in d:
        cfg.offset = _reals(d["offset"], "offset")
    if "thresholds" in d:
        cfg.thresholds = _parse_thresholds(d["thresholds"], "thresholds", cfg_kind,
                                           bool(d.get("cube")))
    if "output" in d:
        cfg.prefix = _parse_prefix(d["output"], "output.prefix")

    need = {
        "check-flux": [],
        "decay": ["initial", "grid", "solver"],
        "contraction": ["initial", "initial_b", "grid"],
        "counterexample": ["group_frequencies", "wave", "grid", "solver"],
        "convergence": ["group_frequencies", "wave", "grids", "solver"],
        "spectrum": ["initial", "probes", "grid", "solver"],
    }[cfg_kind]
    for name in need:
        if getattr(cfg, name) is None:
            raise ConfigError(name, f"required for kind {cfg_kind!r}")
    if cfg_kind == "check-flux" and cfg.initial is None and cfg.group_frequencies is None:
        raise ConfigError("initial", "check-flux needs initial data or group_frequencies")
    return cfg


@dataclass
class RunReport:
    kind: str
    config: dict
    verdicts: dict
    tables: dict
    scalars: dict
    plots: dict
    wall_clock_s: float
    fields: dict = field(default_factory=dict)
    version: str = __version__

    @property
    def passed(self) -> bool:
        return all(bool(v) for v in self.verdicts.values())

    def save(self, outdir: str, prefix: str = "", plot: bool = False) -> list[str]:
        os.makedirs(outdir, exist_ok=True)
        stem = prefix or self.kind.replace("-", "_")
        paths = []
        rp = os.path.join(outdir, f"{stem}_report.json")
        payload = {
            "kind": self.kind,
            "config": self.config,
            "verdicts": self.verdicts,
            "scalars": self.scalars,
            "wall_clock_s": self.wall_clock_s,
            "version": self.version,
        }
        tmp = rp + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
        os.replace(tmp, rp)
        paths.append(rp)
        for name, (rows, columns) in sorted(self.tables.items()):
            cp = os.path.join(outdir, f"{stem}_{name}.csv")
            write_csv(rows, cp, columns=columns)
            paths.append(cp)
        for name, f in sorted(self.fields.items()):
            fp = os.path.join(outdir, f"{stem}_{name}.bin")
            write_field(f, fp)
            paths.append(fp)
        if plot:
            for name, (series, log_y) in sorted(self.plots.items()):
                sp = os.path.join(outdir, f"{stem}_{name}.svg")
                render_svg(series, sp, log_y=log_y)
                paths.append(sp)
        return paths


def _series_from_rows(rows, xkey, ykey, label):
    return (label, [r[xkey] for r in rows], [r[ykey] for r in rows])


def _check_thresholds(cfg, checks) -> dict:
    """checks: name -> (value, kind) with kind 'max' or 'min'."""
    verdicts = {}
    for name, (value, direction) in checks.items():
        if name not in cfg.thresholds:
            continue
        bound = cfg.thresholds[name]
        ok = value <= bound if direction == "max" else value >= bound
        verdicts[name] = ok
    return verdicts


def _group_for(cfg: ExperimentConfig):
    if cfg.group_frequencies is not None:
        return group_basis(list(cfg.group_frequencies))
    if cfg.initial is not None and cfg.initial.spectrum():
        return group_basis(list(cfg.initial.spectrum()))
    return None


def _run_check_flux(cfg: ExperimentConfig) -> tuple[dict, dict, dict, dict]:
    gb = _group_for(cfg)
    if gb is None or gb.rank == 0:
        verdict_row = {"nondegenerate": True, "kbar": "", "piece": "",
                       "interval_lo": "", "interval_hi": "", "tau": "", "c": ""}
        nd = True
    else:
        v = nondegeneracy_check(cfg.flux, gb)
        nd = v.nondegenerate
        verdict_row = {
            "nondegenerate": v.nondegenerate,
            "kbar": "" if v.kbar is None else ",".join(map(str, v.kbar)),
            "piece": "" if v.piece is None else v.piece,
            "interval_lo": "" if v.interval is None else str(v.interval[0]),
            "interval_hi": "" if v.interval is None else str(v.interval[1]),
            "tau": "" if v.tau is None else v.tau,
            "c": "" if v.c is None else v.c,
        }
    verdicts = {}
    expect = cfg.thresholds.get("expect")
    if expect is not None:
        verdicts["expect"] = (expect == "nondegenerate") == nd
    tables = {"verdict": ([verdict_row], list(verdict_row))}
    scalars = {"nondegenerate": float(nd)}
    return verdicts, tables, scalars, {}


def _run_decay(cfg: ExperimentConfig):
    pb = lift_problem(cfg.initial, cfg.flux, frequencies=cfg.group_frequencies,
                      z=cfg.offset)
    traj = run(pb.v0, pb.flux, cfg.grid if pb.m else None, cfg.solver)
    rows = traj.rows
    final = rows[-1]["l1_to_mean"]
    verdicts = _check_thresholds(cfg, {"final_l1_to_mean_max": (final, "max")})
    tables = {"series": (rows, ["t", "l1_to_mean", "min", "max", "mass"])}
    scalars = {"final_l1_to_mean": final, "mean": traj.mean, "rank": pb.m}
    plots = {"series": ([_series_from_rows(rows, "t", "l1_to_mean", "l1_to_mean")], True)}
    fields = {"final": traj.fields[-1]} if cfg.raw.get("dump_fields") and traj.fields else {}
    return verdicts, tables, scalars, plots, fields


def _run_contraction(cfg: ExperimentConfig) -> tuple[dict, dict, dict, dict]:
    freqs = list(cfg.initial.spectrum()) + list(cfg.initial_b.spectrum())
    if cfg.group_frequencies:
        freqs += list(cfg.group_frequencies)
    pa = lift_problem(cfg.initial, cfg.flux, frequencies=freqs)
    pft = lift_problem(cfg.initial_b, cfg.flux, frequencies=freqs)
    if pa.m == 0:
        raise ValueError("contraction needs non-constant data")
    fa = exact_cell_average(pa.v0, cfg.grid)
    fb = exact_cell_average(pft.v0, cfg.grid)
    flux = pa.flux
    rows = [{"step": 0, "t": 0.0, "l1_distance": l1_distance(fa, fb)}]
    t = 0.0
    worst_increase = 0.0
    for s in range(1, cfg.steps + 1):
        # one operator for both fields: alphas over their joint range; dt is
        # capped at unit time, the step a flux constant on that range gets
        alphas = lip_bound(flux, min(fa.vmin, fb.vmin), max(fa.vmax, fb.vmax))
        dt = cfl_dt(fa, flux, cfg.cfl, t_remaining=1.0, alphas=alphas)
        fa = step(fa, flux, dt, alphas=alphas)
        fb = step(fb, flux, dt, alphas=alphas)
        t += dt
        d = l1_distance(fa, fb)
        worst_increase = max(worst_increase, d - rows[-1]["l1_distance"])
        rows.append({"step": s, "t": t, "l1_distance": d})
    verdicts = _check_thresholds(cfg, {"max_step_increase": (worst_increase, "max")})
    tables = {"series": (rows, ["step", "t", "l1_distance"])}
    scalars = {
        "initial_distance": rows[0]["l1_distance"],
        "final_distance": rows[-1]["l1_distance"],
        "max_step_increase": worst_increase,
    }
    plots = {"series": ([_series_from_rows(rows, "t", "l1_distance", "l1_distance")], False)}
    return verdicts, tables, scalars, plots


def _wave_problem(cfg: ExperimentConfig):
    gb = group_basis(list(cfg.group_frequencies))
    if gb.rank == 0:
        raise ValueError("wave experiments need a positive-rank group")
    wave = exact_counterexample(cfg.flux, gb, cfg.wave["a"], cfg.wave["b"],
                                cfg.wave["kbar"], tau=cfg.wave["tau"])
    lifted = lift_flux(cfg.flux, gb)
    return wave, lifted


def _run_counterexample(cfg: ExperimentConfig) -> tuple[dict, dict, dict, dict]:
    wave, lifted = _wave_problem(cfg)
    traj = run(wave.torus_poly(0.0), lifted, cfg.grid, cfg.solver)
    rows = []
    for t, f, row in zip(traj.times, traj.fields, traj.rows):
        ref = exact_cell_average(wave.torus_poly(t), cfg.grid)
        r = dict(row)
        r["l1_error"] = l1_distance(f, ref)
        rows.append(r)
    ratio = rows[-1]["l1_to_mean"] / rows[0]["l1_to_mean"]
    verdicts = _check_thresholds(cfg, {
        "min_final_ratio": (ratio, "min"),
        "max_final_error": (rows[-1]["l1_error"], "max"),
    })
    tables = {"series": (rows, ["t", "l1_to_mean", "l1_error", "min", "max", "mass"])}
    scalars = {"final_ratio": ratio, "tau": wave.tau,
               "final_error": rows[-1]["l1_error"]}
    plots = {
        "series": ([
            _series_from_rows(rows, "t", "l1_to_mean", "numeric"),
            ("exact", [r["t"] for r in rows], [rows[0]["l1_to_mean"]] * len(rows)),
        ], False),
    }
    fields = {"final": traj.fields[-1]} if cfg.raw.get("dump_fields") else {}
    return verdicts, tables, scalars, plots, fields


def _run_convergence(cfg: ExperimentConfig) -> tuple[dict, dict, dict, dict]:
    wave, lifted = _wave_problem(cfg)
    errors = []
    for g in cfg.grids:
        traj = run(wave.torus_poly(0.0), lifted, g, cfg.solver)
        ref = exact_cell_average(wave.torus_poly(cfg.solver.t_end), g)
        errors.append(l1_distance(traj.fields[-1], ref))
    rows = []
    orders = []
    for i, (g, e) in enumerate(zip(cfg.grids, errors)):
        row = {"cells": int(np.prod(g.shape)), "h_max": max(g.h), "l1_error": e}
        if i > 0 and e > 0 and errors[i - 1] > 0:
            order = float(np.log(errors[i - 1] / e)
                          / np.log(max(cfg.grids[i - 1].h) / max(g.h)))
            orders.append(order)
            row["order"] = order
        else:
            row["order"] = ""
        rows.append(row)
    min_order = min(orders) if orders else 0.0
    verdicts = _check_thresholds(cfg, {"min_order": (min_order, "min")})
    tables = {"errors": (rows, ["cells", "h_max", "l1_error", "order"])}
    scalars = {"min_order": min_order, "tau": wave.tau}
    plots = {"errors": ([
        ("l1_error", [r["cells"] for r in rows], [r["l1_error"] for r in rows]),
    ], True)}
    return verdicts, tables, scalars, plots


def _run_spectrum(cfg: ExperimentConfig) -> tuple[dict, dict, dict, dict]:
    pb = lift_problem(cfg.initial, cfg.flux, frequencies=cfg.group_frequencies,
                      z=cfg.offset)
    if pb.m == 0:
        raise ValueError("spectrum probing needs non-constant data")
    for i, p in enumerate(cfg.probes):
        if len(p) != pb.m:
            raise ConfigError(f"probes[{i}]", f"expected {pb.m} entries, got {len(p)}")
    traj = run(pb.v0, pb.flux, cfg.grid, cfg.solver)
    final = traj.fields[-1]
    image = [list(k) for k in pb.v0.terms]
    rows = []
    worst_outside = 0.0
    for p in cfg.probes:
        mag = abs(fourier_coeff(final, p))
        inside = in_lattice(list(p), image)
        if not inside:
            worst_outside = max(worst_outside, mag)
        rows.append({
            "kbar": ",".join(map(str, p)),
            "magnitude": mag,
            "in_group_image": inside,
        })
    mean_drift = abs(traj.rows[-1]["mass"] - pb.mean)
    verdicts = _check_thresholds(cfg, {
        "max_outside_coeff": (worst_outside, "max"),
        "max_mean_drift": (mean_drift, "max"),
    })
    tables = {
        "probes": (rows, ["kbar", "magnitude", "in_group_image"]),
        "series": (traj.rows, ["t", "l1_to_mean", "min", "max", "mass"]),
    }
    scalars = {"max_outside_coeff": worst_outside, "mean_drift": mean_drift,
               "rank": pb.m}
    cube = cfg.raw.get("cube")
    if cube:
        if not isinstance(cube, dict):
            raise ConfigError("cube", "expected an object")
        radii = list(_reals(cube.get("radii", [50.0, 100.0, 200.0]), "cube.radii"))
        if radii != sorted(radii) or len(set(radii)) != len(radii):
            raise ConfigError("cube.radii", "radii must be strictly increasing")
        spu = _int(cube.get("samples_per_unit", 4), "cube.samples_per_unit")
        torus_mean = final.mean()
        crows = [{
            "radius": r,
            "orbit_mean": pb.orbit_mean(final, pb.z, r, spu),
            "torus_mean": torus_mean,
        } for r in radii]
        for row in crows:
            row["abs_error"] = abs(row["orbit_mean"] - row["torus_mean"])
        tables["cube"] = (crows, ["radius", "orbit_mean", "torus_mean", "abs_error"])
        scalars["orbit_mean_error"] = crows[-1]["abs_error"]
        verdicts.update(_check_thresholds(
            cfg, {"max_orbit_mean_error": (crows[-1]["abs_error"], "max")}))
    plots = {"series": ([_series_from_rows(traj.rows, "t", "l1_to_mean", "l1_to_mean")], False)}
    fields = {"final": final} if cfg.raw.get("dump_fields") else {}
    return verdicts, tables, scalars, plots, fields


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Dispatch one experiment; deterministic data, timing only in the report."""
    t0 = time.perf_counter()
    if cfg.kind == "check-flux":
        out = _run_check_flux(cfg)
    elif cfg.kind == "decay":
        out = _run_decay(cfg)
    elif cfg.kind == "contraction":
        out = _run_contraction(cfg)
    elif cfg.kind == "counterexample":
        out = _run_counterexample(cfg)
    elif cfg.kind == "convergence":
        out = _run_convergence(cfg)
    elif cfg.kind == "spectrum":
        out = _run_spectrum(cfg)
    else:  # pragma: no cover - parse_config already rejects
        raise ConfigError("kind", f"unhandled kind {cfg.kind!r}")
    verdicts, tables, scalars, plots, *rest = out
    return RunReport(
        kind=cfg.kind,
        config=cfg.raw,
        verdicts=verdicts,
        tables=tables,
        scalars=scalars,
        plots=plots,
        fields=rest[0] if rest else {},
        wall_clock_s=time.perf_counter() - t0,
    )


# --- CSV ----------------------------------------------------------------------

def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, Fraction):
        return str(v)
    return str(v)


def write_csv(rows, path: str, columns=None):
    """UTF-8 CSV with header; repr round-trip floats; atomic replace.

    Column order is ``columns`` if given, else the first row's key order;
    empty rows with declared columns produce a header-only file.
    """
    if columns is None:
        if not rows:
            raise ValueError("empty rows need explicit columns")
        columns = list(rows[0])
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(columns)
        for r in rows:
            w.writerow([_csv_cell(r.get(c, "")) for c in columns])
    os.replace(tmp, path)


# --- SVG ----------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 800, 500
_ML, _MR, _MT, _MB = 72, 24, 28, 48


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / max(count - 1, 1)
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            stp = mult * mag
            break
    start = np.ceil(lo / stp) * stp
    ticks = []
    v = start
    while v <= hi + 1e-9 * stp:
        ticks.append(0.0 if abs(v) < 1e-12 * stp else float(v))
        v += stp
    return ticks or [lo]


def render_svg(series, path: str, log_y: bool = False):
    """Single-panel line plot; fixed 800x500 viewport; self-contained XML.

    ``series`` is a list of (label, xs, ys) triples.  With log_y, points
    with nonpositive y are dropped.  Refuses empty input.
    """
    if not series:
        raise ValueError("no series to plot")
    clean = []
    for label, xs, ys in series:
        xs = [float(x) for x in xs]
        ys = [float(y) for y in ys]
        if len(xs) != len(ys):
            raise ValueError(f"series {label!r}: x/y length mismatch")
        pts = [(x, y) for x, y in zip(xs, ys)
               if np.isfinite(x) and np.isfinite(y) and (not log_y or y > 0.0)]
        if pts:
            clean.append((str(label), pts))
    if not clean:
        raise ValueError("no plottable points (log scale drops y <= 0)")
    allx = [x for _, pts in clean for x, _ in pts]
    ally = [y for _, pts in clean for _, y in pts]
    if log_y:
        ally = [np.log10(y) for y in ally]
    xlo, xhi = min(allx), max(allx)
    ylo, yhi = min(ally), max(ally)
    if xhi <= xlo:
        xlo, xhi = xlo - 0.5, xhi + 0.5
    if yhi <= ylo:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    padx = 0.03 * (xhi - xlo)
    pady = 0.06 * (yhi - ylo)
    xlo, xhi = xlo - padx, xhi + padx
    ylo, yhi = ylo - pady, yhi + pady

    def sx(x):
        return _ML + (x - xlo) / (xhi - xlo) * (_W - _ML - _MR)

    def sy(y):
        return _H - _MB - (y - ylo) / (yhi - ylo) * (_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="#ffffff"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="#333333"/>',
    ]
    for tx in _ticks(xlo + padx, xhi - padx):
        px = sx(tx)
        out.append(f'<line x1="{px:.2f}" y1="{_H - _MB}" x2="{px:.2f}" '
                   f'y2="{_H - _MB + 5}" stroke="#333333"/>')
        out.append(f'<text x="{px:.2f}" y="{_H - _MB + 20}" font-size="12" '
                   f'font-family="sans-serif" text-anchor="middle">{tx:g}</text>')
    if log_y:
        lo_d = int(np.floor(ylo))
        hi_d = int(np.ceil(yhi))
        yticks = [d for d in range(lo_d, hi_d + 1) if ylo <= d <= yhi]
        ylabels = [f"1e{d}" for d in yticks]
    else:
        yticks = _ticks(ylo + pady, yhi - pady)
        ylabels = [f"{t:g}" for t in yticks]
    for ty, lab in zip(yticks, ylabels):
        py = sy(ty)
        out.append(f'<line x1="{_ML - 5}" y1="{py:.2f}" x2="{_ML}" '
                   f'y2="{py:.2f}" stroke="#333333"/>')
        out.append(f'<text x="{_ML - 8}" y="{py + 4:.2f}" font-size="12" '
                   f'font-family="sans-serif" text-anchor="end">{escape(lab)}</text>')
    for i, (label, pts) in enumerate(clean):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(
            f"{sx(x):.2f},{sy(np.log10(y) if log_y else y):.2f}" for x, y in pts
        )
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        ly = _MT + 16 + 16 * i
        out.append(f'<line x1="{_W - _MR - 120}" y1="{ly - 4}" '
                   f'x2="{_W - _MR - 96}" y2="{ly - 4}" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        out.append(f'<text x="{_W - _MR - 90}" y="{ly}" font-size="12" '
                   f'font-family="sans-serif">{escape(label)}</text>')
    out.append("</svg>")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out))
        fh.write("\n")
    os.replace(tmp, path)
