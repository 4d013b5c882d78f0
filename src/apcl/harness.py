"""Experiment harness: JSON configs in, deterministic CSV/SVG/JSON out.

Rationals travel as strings "p/q" in configs; frequencies as n x q matrices
of such strings over the declared basis.  Identical configs produce byte
identical CSV and SVG files; wall-clock time appears only in the JSON
report.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .flux import PiecewiseFlux, lift_flux, nondegeneracy_check
from .freqlattice import (Frequency, FrequencyBasis, SpectrumGroupBasis, _check_space, _clear,
                          _config_form, _value, group_basis, in_lattice)
from .lift import _cube_per_axis, _data_group, lift_problem
from .solver import (
    DEFAULT_CFL,
    MAX_STEPS,
    SolverConfig,
    TorusGrid,
    _write_atomic,
    check_cfl,
    evolve,
    exact_cell_average,
    exact_counterexample,
    fourier_coeff,
    l1_distance,
    run,
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

# how far a declared product e_i e_j = sum_k w_k e_k may miss the basis
# values, relative to the larger of |v_i v_j| and sum_k |w_k v_k|: the values
# are float shadows, so an exact product is off by a few ulp at most
PRODUCT_RTOL = 1e-9


class ConfigError(ValueError):
    """Config validation failure; message starts with the field path."""

    def __init__(self, path: str, msg: str):
        super().__init__(f"{path}: {msg}")
        self.path = path


def _checked(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its ValueError refused as a ConfigError at ``path``."""
    try:
        return make(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(path, str(e))


def _object(d, path, keys, reader: str | None = None) -> dict:
    """``d`` as a JSON object, refusing any key not in ``keys``.

    ``reader`` names what reads the object in the message; it defaults to
    the object's path.
    """
    if not isinstance(d, dict):
        raise ConfigError(path, f"expected an object, got {type(d).__name__}")
    for key in d:
        if key not in keys:
            raise ConfigError(f"{path}.{key}" if path else key,
                              f"not read by {reader or path}; it reads {list(keys)}")
    return d


def _need(d: dict, key, path, typ=None):
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


def _rational(v, path) -> Fraction:
    """A rational whose float shadow is finite: the numeric layer evaluates it."""
    f = _fraction(v, path)
    try:
        float(f)
    except OverflowError:
        raise ConfigError(path, f"{v!r} lies beyond float range") from None
    return f


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
    """A JSON integer or an integral rational string in float range; never a bool or a float."""
    f = _rational(v, path)
    if f.denominator != 1:
        raise ConfigError(path, f"expected an integer, got {v!r}")
    return int(f)


def _at_least_one(v, path) -> int:
    n = _int(v, path)
    if n < 1:
        raise ConfigError(path, f"must be at least 1, got {n}")
    return n


def _steps(v, path) -> int:
    """A step count of the contraction kind: at least 1, at most ``MAX_STEPS``."""
    n = _at_least_one(v, path)
    if n > MAX_STEPS:
        raise ConfigError(path, f"must be at most {MAX_STEPS}, got {n}")
    return n


def _list(v, path, item, what: str, least: int = 0) -> tuple:
    """A JSON list of at least ``least`` entries, each read by ``item(x, path)``."""
    if not isinstance(v, list) or len(v) < least:
        raise ConfigError(path, f"expected a list of {what}, got {v!r}")
    return tuple(item(x, f"{path}[{i}]") for i, x in enumerate(v))


def _ints(v, path) -> tuple[int, ...]:
    return _list(v, path, _int, "integers")


def _reals(v, path) -> tuple[float, ...]:
    return _list(v, path, _real, "numbers")


def _label(v, path) -> str:
    if not isinstance(v, str):
        raise ConfigError(path, f"expected a string, got {v!r}")
    return v


def _parse_basis(d, path) -> FrequencyBasis:
    _object(d, path, ("labels", "values", "products"))
    labels = _list(_need(d, "labels", path), f"{path}.labels", _label, "strings")
    values = _reals(_need(d, "values", path), f"{path}.values")
    dim = len(values)

    def product(entry, p):
        """[i, j, [coords...]]: the exact coordinates of e_i e_j."""
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ConfigError(p, "expected [i, j, [coords...]]")
        ij = (_int(entry[0], f"{p}[0]"), _int(entry[1], f"{p}[1]"))
        if not all(1 <= i < dim for i in ij):
            raise ConfigError(p, f"indices must name irrational basis elements 1..{dim - 1}")
        coords = _list(entry[2], f"{p}[2]", _fraction, "rationals")
        if len(coords) != dim:
            raise ConfigError(f"{p}[2]", f"expected {dim} coordinates, got {len(coords)}")
        _check_product(labels, values, ij, coords, p)
        return ij, coords

    products = None
    if "products" in d:
        products = dict(_list(d["products"], f"{path}.products", product,
                              "products [i, j, [coords...]]"))
    return _checked(path, FrequencyBasis, labels, values, products)


def _check_product(labels, values, ij, coords, path):
    """Refuse a declared e_i e_j = sum_k w_k e_k that the float values contradict.

    The exact layer multiplies by the table as given, so a wrong entry would
    change its verdicts; the float values are the only other record of the
    basis.  Checked within ``PRODUCT_RTOL``; a side beyond float range fails.
    """
    i, j = ij
    lhs = values[i] * values[j]
    try:
        terms = [float(w) * v for w, v in zip(coords, values)]
        rhs, scale = math.fsum(terms), math.fsum(map(abs, terms))
    except (OverflowError, ValueError):  # a coordinate, or -inf + inf in fsum
        rhs = scale = math.nan
    if not abs(lhs - rhs) <= PRODUCT_RTOL * max(abs(lhs), scale):
        raise ConfigError(path, f"declared {labels[i]}*{labels[j]} = {rhs!r} disagrees with "
                                f"the basis values' product {lhs!r} beyond relative "
                                f"tolerance {PRODUCT_RTOL:g}")


def _coordinates(row: list, basis, path) -> tuple[Fraction, ...]:
    """Rational basis coordinates whose float shadow, the sum over the basis, is finite."""
    if len(row) != basis.dim:
        raise ConfigError(path, f"expected {basis.dim} coordinates")
    coords = _list(row, path, _rational, "rationals")
    (num,), den = _clear([coords])
    try:
        _value(num, den, basis.values)
    except ValueError:
        msg = "float shadow over the basis values lies beyond float range"
        raise ConfigError(path, msg) from None
    return coords


def _parse_frequency(mat, basis, path) -> Frequency:
    if not isinstance(mat, list) or not mat or not all(isinstance(r, list) for r in mat):
        raise ConfigError(path, "expected a matrix [[p/q, ...], ...] of rationals")
    return Frequency.of(basis, [_coordinates(r, basis, f"{path}[{i}]") for i, r in enumerate(mat)])


def _parse_trigpoly(d, basis, path) -> TrigPoly:
    terms = _need(_object(d, path, ("terms",)), "terms", path, list)
    if not terms:
        raise ConfigError(f"{path}.terms", "need at least one term")
    parsed = []
    n = None
    for i, t in enumerate(terms):
        p = f"{path}.terms[{i}]"
        _object(t, p, ("frequency", "re", "im"))
        freq = _parse_frequency(_need(t, "frequency", p, list), basis, f"{p}.frequency")
        if n is None:
            n = freq.n
        _checked(f"{p}.frequency", _check_space, freq, basis, n)
        re = _real(t.get("re", 0.0), f"{p}.re")
        im = _real(t.get("im", 0.0), f"{p}.im")
        parsed.append((freq, complex(re, im)))
    try:
        return TrigPoly(basis, n, parsed)
    except OverflowError as e:
        raise ConfigError(f"{path}.terms", str(e))
    except ValueError as e:
        raise ConfigError(path, str(e))


def _parse_flux(d, basis, path) -> PiecewiseFlux:
    _object(d, path, ("breakpoints", "pieces"))

    def coefficient(c, p):
        return _coordinates(c, basis, p) if isinstance(c, list) else _rational(c, p)

    def component(v, p):
        return _list(v, p, coefficient, "coefficients")

    def piece(v, p):
        return _list(v, p, component, "components")

    bps = _list(_need(d, "breakpoints", path), f"{path}.breakpoints", _rational, "rationals")
    pieces = _list(_need(d, "pieces", path), f"{path}.pieces", piece, "pieces")
    return _checked(path, PiecewiseFlux, basis, bps, pieces)


def _parse_grid(v, path) -> TorusGrid:
    return _checked(path, TorusGrid, _list(v, path, _int, "cell counts", 1))


def _parse_grids(v, path) -> tuple[TorusGrid, ...]:
    """At least two grids; the observed order divides by the log of each h_max ratio."""
    grids = _list(v, path, _parse_grid, "at least two grids", 2)
    for i in range(1, len(grids)):
        if grids[i].m != grids[0].m:
            raise ConfigError(f"{path}[{i}]", f"a {grids[i].m}-dimensional grid in a ladder "
                              f"that starts with a {grids[0].m}-dimensional one")
        if max(grids[i].h) == max(grids[i - 1].h):
            raise ConfigError(f"{path}[{i}]", f"h_max equals that of {path}[{i - 1}]; "
                              "the observed order needs two different mesh sizes")
    return grids


def _parse_solver(d, path) -> SolverConfig:
    _object(d, path, ("t_end", "cfl", "record_times"))
    t_end = _real(_need(d, "t_end", path), f"{path}.t_end")
    cfl = _checked(f"{path}.cfl", check_cfl, _real(d.get("cfl", DEFAULT_CFL), f"{path}.cfl"))
    record_times = _reals(d.get("record_times", []), f"{path}.record_times")
    return _checked(path, SolverConfig, t_end=t_end, cfl=cfl, record_times=record_times)


def _parse_wave(d, path) -> dict:
    _object(d, path, ("a", "b", "kbar", "tau"))
    a = _rational(_need(d, "a", path), f"{path}.a")
    b = _rational(_need(d, "b", path), f"{path}.b")
    kbar = _ints(_need(d, "kbar", path), f"{path}.kbar")
    if not any(kbar):
        # xi = 0 makes every flux affine and the wave a constant
        raise ConfigError(f"{path}.kbar", f"needs a nonzero entry, got {list(kbar)}")
    if not a < b:
        raise ConfigError(path, "need a < b")
    return {"a": a, "b": b, "kbar": kbar,
            "tau": _real(d["tau"], f"{path}.tau") if "tau" in d else None}


def _parse_cube(d, path) -> tuple[tuple[float, ...], int, tuple[float, ...] | None]:
    """(radii, samples_per_unit, offset): positive, strictly increasing radii.

    ``offset`` is the torus offset z of the sampled orbit, None for zeros;
    its length is checked against the rank once the group is known.
    """
    _object(d, path, ("radii", "samples_per_unit", "offset"))
    radii = _reals(d.get("radii", [50.0, 100.0, 200.0]), f"{path}.radii")
    if not radii or radii[0] <= 0.0 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ConfigError(f"{path}.radii", "radii must be positive and strictly increasing")
    spu = _at_least_one(d.get("samples_per_unit", 4), f"{path}.samples_per_unit")
    return radii, spu, _reals(d["offset"], f"{path}.offset") if "offset" in d else None


def _parse_flag(v, path) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(path, f"expected true or false, got {v!r}")
    return v


def _parse_thresholds(d, path, kind: str, raw: dict) -> dict:
    """Every bound a finite number, or for ``expect`` one of the two verdict names.

    A name the run would not evaluate (a typo, another kind's threshold, a
    bound whose scalar needs a key the config lacks) is refused.
    """
    if not isinstance(d, dict):
        raise ConfigError(path, "expected an object")
    exp = EXPERIMENTS[kind]
    known = [t for t, b in exp.thresholds.items() if b.needs is None or b.needs in raw]
    out = {}
    for name, v in d.items():
        if name not in known:
            bound = exp.thresholds.get(name)
            why = f"needs a {bound.needs}" if bound else f"not evaluated by kind {kind!r}"
            raise ConfigError(f"{path}.{name}", f"{why}; expected one of {known}")
        if exp.thresholds[name].direction == "expect":
            if v not in ("degenerate", "nondegenerate"):
                raise ConfigError(f"{path}.{name}",
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
    prefix = _object(d, "output", ("prefix",)).get("prefix", "")
    if not isinstance(prefix, str):
        raise ConfigError(path, f"expected a string, got {prefix!r}")
    if prefix == ".." or any(c in prefix for c in "/\\\0"):
        raise ConfigError(path, f"must be a plain file-name stem inside --out, got {prefix!r}")
    return prefix


# the keys every kind reads; the rest are declared per kind in EXPERIMENTS
COMMON_KEYS = ("kind", "basis", "flux", "thresholds", "output")


@dataclass
class ExperimentConfig:
    """A parsed config; ``group_frequencies`` holds the declared group itself."""

    kind: str
    raw: dict
    basis: FrequencyBasis
    flux: PiecewiseFlux
    initial: TrigPoly | None = None
    initial_b: TrigPoly | None = None
    group_frequencies: SpectrumGroupBasis | None = None
    grid: TorusGrid | None = None
    grids: tuple[TorusGrid, ...] | None = None
    solver: SolverConfig | None = None
    steps: int = 200
    cfl: float = DEFAULT_CFL
    wave: dict | None = None
    probes: tuple[tuple[int, ...], ...] | None = None
    cube: tuple[tuple[float, ...], int, tuple[float, ...] | None] | None = None
    dump_fields: bool = False
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
    """Every key the kind reads, parsed and checked before anything runs.

    The kind's entry in ``EXPERIMENTS`` says which keys it requires and
    which it may take; any other key is refused, as is a missing one.
    """
    cfg_kind = d.get("kind", kind)
    if cfg_kind is None:
        raise ConfigError("kind", "missing required field")
    if kind is not None and cfg_kind != kind:
        raise ConfigError("kind", f"config says {cfg_kind!r} but {kind!r} was requested")
    if cfg_kind not in KINDS:
        raise ConfigError("kind", f"unknown kind {cfg_kind!r}; expected one of {KINDS}")
    exp = EXPERIMENTS[cfg_kind]
    basis = _parse_basis(_need(d, "basis", ""), "basis")
    flux = _parse_flux(_need(d, "flux", ""), basis, "flux")
    cfg = ExperimentConfig(kind=cfg_kind, raw=d, basis=basis, flux=flux)
    parsers = {
        "initial": lambda v, p: _parse_trigpoly(v, basis, p),
        "initial_b": lambda v, p: _parse_trigpoly(v, basis, p),
        # group_basis is looked up per call, so a tracer that rebinds it sees the parse
        "group_frequencies": lambda v, p: _checked(p, group_basis, _list(
            v, p, lambda m, q: _parse_frequency(m, basis, q), "frequencies", 1)),
        "grid": _parse_grid,
        "grids": _parse_grids,
        "solver": _parse_solver,
        "steps": _steps,
        "cfl": lambda v, p: _checked(p, check_cfl, _real(v, p)),
        "wave": _parse_wave,
        "probes": lambda v, p: _list(v, p, _ints, "integer vectors", 1),
        "cube": _parse_cube,
        "dump_fields": _parse_flag,
    }
    for key, parse in parsers.items():
        if key in d and key in exp.keys:
            setattr(cfg, key, parse(d[key], key))
    if "thresholds" in d:
        cfg.thresholds = _parse_thresholds(d["thresholds"], "thresholds", cfg_kind, d)
    if "output" in d:
        cfg.prefix = _parse_prefix(d["output"], "output.prefix")
    _object(d, "", COMMON_KEYS + exp.keys, f"kind {cfg_kind!r}")
    for key in exp.required:
        if key not in d:
            raise ConfigError(key, f"required for kind {cfg_kind!r}")
    if cfg.cube is not None:
        # the largest radius has the most points; the data dimension sets the power
        radii, spu, _ = cfg.cube
        _checked("cube", _cube_per_axis, cfg.initial.n, radii[-1], spu)
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
    stepping: list = field(default_factory=list)
    version: str = __version__

    @property
    def passed(self) -> bool | None:
        """True or False with thresholds configured; None (no verdict) without."""
        return all(self.verdicts.values()) if self.verdicts else None

    def save(self, outdir: str, prefix: str = "", plot: bool = False) -> list[str]:
        """Every output in ``outdir``, returning the paths; an empty plot is named on stderr."""
        os.makedirs(outdir, exist_ok=True)
        stem = prefix or self.kind.replace("-", "_")
        paths = []
        rp = os.path.join(outdir, f"{stem}_report.json")
        payload = {
            "kind": self.kind,
            "config": self.config,
            "verdicts": self.verdicts,
            "passed": self.passed,
            "scalars": self.scalars,
            "stepping": self.stepping,
            "wall_clock_s": self.wall_clock_s,
            "version": self.version,
        }
        text = json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
        _write_atomic(rp, text.encode("utf-8"))
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
            for name, series in sorted(self.plots.items()):
                sp = os.path.join(outdir, f"{stem}_{name}.svg")
                try:
                    render_svg(series, sp)
                except ValueError as e:
                    print(f"not plotted: {sp}: {e}", file=sys.stderr)
                    continue
                paths.append(sp)
        return paths


# --- runners: each returns (tables, scalars, plots, fields, stepping) -------
# plots maps an SVG name to its (label, xs, ys) series, and render_svg picks
# the y scale; stepping holds one stepper record per ``solver.evolve`` loop:
# per grid for convergence, per pair for contraction, none for check-flux;
# decay and spectrum share one runner, which reads what the config holds

def _series_from_rows(rows, xkey, ykey, label):
    return (label, [r[xkey] for r in rows], [r[ykey] for r in rows])


def _run_check_flux(cfg: ExperimentConfig):
    """Decide over the data's group, or with no data over the declared one (the verdict
    then holds for every data set in it); ``nondegeneracy_check`` refuses rank 0."""
    if cfg.initial is None and cfg.group_frequencies is None:
        raise ConfigError("initial", "check-flux needs initial data or group_frequencies")
    gb = cfg.group_frequencies
    if cfg.initial is not None:
        if gb is not None:
            # exact membership, not a lift: the flux is decided even where it cannot be lifted
            _data_group(cfg.initial, gb)
        # the criterion asks about the group the data generate, which a
        # declared group may exceed by a degenerate direction
        gb = _data_group(cfg.initial)[0]
    v = nondegeneracy_check(cfg.flux, gb)
    row = {
        "nondegenerate": v.nondegenerate,
        "kbar": None if v.kbar is None else ",".join(map(str, v.kbar)),
        "piece": v.piece,
        "interval_lo": None if v.interval is None else str(v.interval[0]),
        "interval_hi": None if v.interval is None else str(v.interval[1]),
        "tau": v.tau,
        "c": v.c,
    }
    row = {k: "" if x is None else x for k, x in row.items()}
    scalars = {"nondegenerate": float(v.nondegenerate), "rank": gb.rank,
               "group_of": "initial" if cfg.initial is not None else "group_frequencies",
               "group_frequencies": [[_config_form(c, gb.den) for c in comp]
                                     for comp in gb.generators]}
    return {"verdict": ([row], list(row))}, scalars, {}, {}, []


def _run_contraction(cfg: ExperimentConfig):
    gb = cfg.group_frequencies
    # the pairs' first keys generate the group of the joint spectrum (``lift._data_group``)
    if gb is None and (firsts := [*cfg.initial._firsts, *cfg.initial_b._firsts]):
        gb = group_basis(firsts)
    pa = lift_problem(cfg.initial, cfg.flux, group=gb)
    pb = lift_problem(cfg.initial_b, None, group=pa.group)
    if pa.m == 0:
        raise ValueError("contraction needs non-constant data")
    rows = []
    # dt is capped at unit time, the step a flux constant on the joint range gets
    for t, (fa, fb), stepper in evolve(pa.flux, cfg.cfl, cfg.grid, (pa.v0, pb.v0),
                                       (0.0, math.inf), cap=1.0):
        rows.append({"step": stepper.steps, "t": t, "l1_distance": l1_distance(fa, fb)})
        if stepper.steps == cfg.steps:
            break
    # the series reads no range, so the carried bound is checked once, after the last step
    stepper.check(t)
    d = [r["l1_distance"] for r in rows]
    tables = {"series": (rows, ["step", "t", "l1_distance"])}
    scalars = {"initial_distance": d[0], "final_distance": d[-1],
               "max_step_increase": max([0.0] + [b - a for a, b in zip(d, d[1:])])}
    plots = {"series": [_series_from_rows(rows, "t", "l1_distance", "l1_distance")]}
    return tables, scalars, plots, {}, [stepper.record()]


def _wave_problem(cfg: ExperimentConfig):
    gb = cfg.group_frequencies
    wave = exact_counterexample(cfg.flux, gb, cfg.wave["a"], cfg.wave["b"],
                                cfg.wave["kbar"], tau=cfg.wave["tau"])
    return wave, lift_flux(cfg.flux, gb)


def _run_counterexample(cfg: ExperimentConfig):
    wave, lifted = _wave_problem(cfg)
    traj = run(wave.torus_poly(0.0), lifted, cfg.grid, cfg.solver)
    rows = []
    for f, row in zip(traj.fields, traj.rows):
        ref = exact_cell_average(wave.torus_poly(row["t"]), cfg.grid)
        r = dict(row)
        r["l1_error"] = l1_distance(f, ref)
        rows.append(r)
    tables = {"series": (rows, ["t", "l1_to_mean", "l1_error", "min", "max", "mass"])}
    scalars = {"final_ratio": rows[-1]["l1_to_mean"] / rows[0]["l1_to_mean"],
               "tau": wave.tau, "final_error": rows[-1]["l1_error"]}
    plots = {"series": [
        _series_from_rows(rows, "t", "l1_to_mean", "numeric"),
        ("exact", [r["t"] for r in rows], [rows[0]["l1_to_mean"]] * len(rows)),
    ]}
    fields = {"final": traj.fields[-1]} if cfg.dump_fields else {}
    return tables, scalars, plots, fields, [traj.stepping]


def _run_convergence(cfg: ExperimentConfig):
    wave, lifted = _wave_problem(cfg)
    rows, orders, stepping = [], [], []
    for g in cfg.grids:
        traj = run(wave.torus_poly(0.0), lifted, g, cfg.solver)
        stepping.append(traj.stepping)
        ref = exact_cell_average(wave.torus_poly(cfg.solver.t_end), g)
        e = l1_distance(traj.fields[-1], ref)
        row = {"cells": int(np.prod(g.shape)), "h_max": max(g.h), "l1_error": e, "order": ""}
        if rows and e > 0 and rows[-1]["l1_error"] > 0:
            row["order"] = float(np.log(rows[-1]["l1_error"] / e)
                                 / np.log(rows[-1]["h_max"] / row["h_max"]))
            orders.append(row["order"])
        rows.append(row)
    tables = {"errors": (rows, ["cells", "h_max", "l1_error", "order"])}
    scalars = {"min_order": min(orders) if orders else 0.0, "tau": wave.tau}
    plots = {"errors": [("l1_error", [r["cells"] for r in rows], [r["l1_error"] for r in rows])]}
    return tables, scalars, plots, {}, stepping


def _run_lifted(cfg: ExperimentConfig):
    """``decay`` and ``spectrum``: the lifted solve, with probes and cube when configured."""
    pb = lift_problem(cfg.initial, cfg.flux, group=cfg.group_frequencies)
    if cfg.probes is not None:
        if pb.m == 0:
            raise ValueError("spectrum probing needs non-constant data")
        for i, p in enumerate(cfg.probes):
            if len(p) != pb.m:
                raise ConfigError(f"probes[{i}]", f"expected {pb.m} entries, got {len(p)}")
            if not cfg.grid.holds(p):
                raise ConfigError(f"probes[{i}]", f"needs 2|k_j| < N_j on the grid "
                                  f"{list(cfg.grid.shape)}, got {list(p)}")
    if cfg.cube is not None:
        radii, spu, offset = cfg.cube
        z = (0.0,) * pb.m if offset is None else offset
        # orbit_mean takes z itself: wrapping the wrapped offset again can change its bits
        _checked("cube.offset", pb._offset, z)
    traj = run(pb.v0, pb.flux, cfg.grid, cfg.solver)
    rows = traj.rows
    tables = {"series": (rows, list(rows[0]))}
    scalars = {"final_l1_to_mean": rows[-1]["l1_to_mean"], "mean": pb.mean, "rank": pb.m,
               "mean_drift": abs(rows[-1]["mass"] - pb.mean)}
    plots = {"series": [_series_from_rows(rows, "t", "l1_to_mean", "l1_to_mean")]}
    # rank-0 data have no field: ``run`` shortcuts to the constant solution
    final = traj.fields[-1] if traj.fields else None
    fields = {"final": final} if cfg.dump_fields and final is not None else {}
    if cfg.probes is not None:
        # the pairs' first keys span the lattice of every key
        image = [list(k) for k in pb.v0._firsts]
        prows = []
        worst_outside = 0.0
        for p in cfg.probes:
            mag = abs(fourier_coeff(final, p))
            inside = in_lattice(list(p), image)
            if not inside:
                worst_outside = max(worst_outside, mag)
            prows.append({"kbar": ",".join(map(str, p)), "magnitude": mag,
                          "in_group_image": inside})
        tables["probes"] = (prows, ["kbar", "magnitude", "in_group_image"])
        scalars["max_outside_coeff"] = worst_outside
    if cfg.cube is not None:
        torus_mean = final.mean()
        crows = []
        for r in radii:
            om = pb.orbit_mean(final, z, r, spu)
            crows.append({"radius": r, "orbit_mean": om, "torus_mean": torus_mean,
                          "abs_error": abs(om - torus_mean)})
        tables["cube"] = (crows, ["radius", "orbit_mean", "torus_mean", "abs_error"])
        scalars["orbit_mean_error"] = crows[-1]["abs_error"]
    return tables, scalars, plots, fields, [traj.stepping]


# --- the experiment kinds ---------------------------------------------------

class Bound(NamedTuple):
    """What a threshold bounds: a scalar its runner reports, and how.

    ``direction`` is "max" (scalar <= bound), "min" (scalar >= bound) or
    "expect" (the bound names the verdict, "degenerate" or
    "nondegenerate", that the 0/1 scalar must equal).  ``needs`` is the
    config key without which the runner does not report the scalar.
    """

    scalar: str
    direction: str
    needs: str | None = None


class Experiment(NamedTuple):
    """One experiment kind: its help line, runner, config keys and thresholds."""

    help: str
    run: Callable[[ExperimentConfig], tuple[dict, dict, dict, dict, list]]
    required: tuple[str, ...]
    optional: tuple[str, ...]
    thresholds: dict[str, Bound]

    @property
    def keys(self) -> tuple[str, ...]:
        return self.required + self.optional


# The only per-kind declaration: parse_config, the CLI and run_experiment
# take everything kind-specific from here.
EXPERIMENTS = {
    "check-flux": Experiment(
        "decide nondegeneracy of a flux over a frequency group", _run_check_flux,
        required=(), optional=("initial", "group_frequencies"),
        thresholds={"expect": Bound("nondegenerate", "expect")}),
    "decay": Experiment(
        "evolve almost periodic data and track distance to its mean", _run_lifted,
        required=("initial", "grid", "solver"),
        optional=("group_frequencies", "dump_fields"),
        thresholds={"final_l1_to_mean_max": Bound("final_l1_to_mean", "max")}),
    "contraction": Experiment(
        "advance two data sets jointly and track their L1 distance", _run_contraction,
        required=("initial", "initial_b", "grid"),
        optional=("group_frequencies", "steps", "cfl"),
        thresholds={"max_step_increase": Bound("max_step_increase", "max")}),
    "counterexample": Experiment(
        "validate and evolve an exact traveling wave", _run_counterexample,
        required=("group_frequencies", "wave", "grid", "solver"), optional=("dump_fields",),
        thresholds={"min_final_ratio": Bound("final_ratio", "min"),
                    "max_final_error": Bound("final_error", "max")}),
    "convergence": Experiment(
        "measure L1 error against an exact wave on refined grids", _run_convergence,
        required=("group_frequencies", "wave", "grids", "solver"), optional=(),
        thresholds={"min_order": Bound("min_order", "min")}),
    "spectrum": Experiment(
        "probe Fourier coefficients of the evolved lift", _run_lifted,
        required=("initial", "probes", "grid", "solver"),
        optional=("group_frequencies", "cube", "dump_fields"),
        thresholds={"max_outside_coeff": Bound("max_outside_coeff", "max"),
                    "max_mean_drift": Bound("mean_drift", "max"),
                    "max_orbit_mean_error": Bound("orbit_mean_error", "max", needs="cube")}),
}
KINDS = tuple(EXPERIMENTS)


def _judge(cfg: ExperimentConfig, scalars: dict) -> dict:
    """One verdict per configured threshold, against the scalar it names."""
    verdicts = {}
    for name, limit in cfg.thresholds.items():
        scalar, direction, _ = EXPERIMENTS[cfg.kind].thresholds[name]
        if scalar not in scalars:
            raise AssertionError(f"threshold {name}: the run reported no {scalar!r}")
        value = scalars[scalar]
        if direction == "expect":
            verdicts[name] = (limit == "nondegenerate") == bool(value)
        else:
            verdicts[name] = value <= limit if direction == "max" else value >= limit
    return verdicts


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Run one experiment and judge its thresholds; timing only in the report.

    Numpy overflow raises ``FloatingPointError``: values in float range can
    still ask for products beyond it (a flux of 1e308 u^2, a wave phase 2 pi tau t).
    """
    t0 = time.perf_counter()
    with np.errstate(over="raise", invalid="raise"):
        tables, scalars, plots, fields, stepping = EXPERIMENTS[cfg.kind].run(cfg)
    return RunReport(kind=cfg.kind, config=cfg.raw, verdicts=_judge(cfg, scalars),
                     tables=tables, scalars=scalars, plots=plots, fields=fields,
                     stepping=stepping, wall_clock_s=time.perf_counter() - t0)


# --- CSV ----------------------------------------------------------------------

def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(rows, path: str, columns):
    """UTF-8 CSV with header; repr round-trip floats; atomic replace.

    One column per entry of ``columns``, in order; a row without a column's
    key leaves its cell empty, and empty rows produce a header-only file.
    """
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    for r in rows:
        w.writerow([_csv_cell(r.get(c, "")) for c in columns])
    _write_atomic(path, buf.getvalue().encode("utf-8"))


# --- SVG ----------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 800, 500
_ML, _MR, _MT, _MB = 72, 24, 28, 48


def _escape(text: str) -> str:
    """``xml.sax.saxutils.escape``: & first, then > and <.

    Its import pulls in urllib, http, email and ssl, tens of ms of start-up.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _ticks(lo: float, hi: float) -> list[float]:
    """The distinct multiples of stp in [lo, hi], stp the least round step >= (hi - lo)/4.

    Up to 1e-9 steps past hi still counts, as 0.3 / 0.1 is 2.9999999999999996.
    An empty range, or one too narrow or too wide for a float step, gets lo.
    Below an ulp of lo two multiples can round to one float, which is kept once.
    """
    raw = (hi - lo) / 4
    if not 1e-300 < raw < math.inf:
        return [lo]
    mag = 10.0 ** np.floor(np.log10(raw))
    stp = next(mult * mag for mult in (1.0, 2.0, 2.5, 5.0, 10.0) if raw <= mult * mag)
    ticks = range(math.ceil(lo / stp), math.floor(hi / stp + 1e-9) + 1)
    return list(dict.fromkeys(float(i * stp) for i in ticks)) or [lo]


def _tick_labels(ticks: list[float]) -> list[str]:
    """``ticks`` with the fewest significant digits, 6 (``{:g}``) to 17, that tell them apart."""
    for digits in range(6, 18):
        labels = [f"{t:.{digits}g}" for t in ticks]
        if len(set(labels)) == len(labels):
            break
    return labels


def render_svg(series, path: str):
    """Single-panel line plot; fixed 800x500 viewport; self-contained XML.

    ``series`` is a list of (label, xs, ys) triples.  Points with a
    non-finite coordinate are dropped; input with no point left is refused.
    The y axis is logarithmic when every y is positive and at least two
    powers of ten lie between the least and largest, so that it carries
    two decade labels; otherwise it is linear.
    """
    if not series:
        raise ValueError("no series to plot")
    clean = []
    for label, xs, ys in series:
        xs = [float(x) for x in xs]
        ys = [float(y) for y in ys]
        if len(xs) != len(ys):
            raise ValueError(f"series {label!r}: x/y length mismatch")
        pts = [(x, y) for x, y in zip(xs, ys) if np.isfinite(x) and np.isfinite(y)]
        if pts:
            clean.append((str(label), pts))
    if not clean:
        raise ValueError("no plottable points")
    allx = [x for _, pts in clean for x, _ in pts]
    ally = [y for _, pts in clean for _, y in pts]
    xlo, xhi = min(allx), max(allx)
    ylo, yhi = min(ally), max(ally)
    log_y = ylo > 0.0 and np.floor(np.log10(yhi)) > np.ceil(np.log10(ylo))
    if log_y:
        ylo, yhi = np.log10(ylo), np.log10(yhi)
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
    xticks = _ticks(xlo + padx, xhi - padx)
    for tx, lab in zip(xticks, _tick_labels(xticks)):
        px = sx(tx)
        out.append(f'<line x1="{px:.2f}" y1="{_H - _MB}" x2="{px:.2f}" '
                   f'y2="{_H - _MB + 5}" stroke="#333333"/>')
        out.append(f'<text x="{px:.2f}" y="{_H - _MB + 20}" font-size="12" '
                   f'font-family="sans-serif" text-anchor="middle">{lab}</text>')
    if log_y:
        lo_d = int(np.floor(ylo))
        hi_d = int(np.ceil(yhi))
        yticks = [d for d in range(lo_d, hi_d + 1) if ylo <= d <= yhi]
        ylabels = [f"1e{d}" for d in yticks]
    else:
        yticks = _ticks(ylo + pady, yhi - pady)
        ylabels = _tick_labels(yticks)
    for ty, lab in zip(yticks, ylabels):
        py = sy(ty)
        out.append(f'<line x1="{_ML - 5}" y1="{py:.2f}" x2="{_ML}" '
                   f'y2="{py:.2f}" stroke="#333333"/>')
        out.append(f'<text x="{_ML - 8}" y="{py + 4:.2f}" font-size="12" '
                   f'font-family="sans-serif" text-anchor="end">{_escape(lab)}</text>')
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
                   f'font-family="sans-serif">{_escape(label)}</text>')
    out.append("</svg>")
    _write_atomic(path, ("\n".join(out) + "\n").encode("utf-8"))
