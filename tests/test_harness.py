"""Experiment harness: config parsing, runners, reports, CSV/SVG output."""

import contextlib
import copy
import io
import json
import logging
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
import xml.etree.ElementTree as ET
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import apcl.solver as solver_mod
from apcl import cli, harness
from apcl.harness import (
    EXPERIMENTS,
    KINDS,
    ConfigError,
    parse_config,
    render_svg,
    run_experiment,
    write_csv,
)
from apcl.flux import PiecewiseFlux, affine_on, directional, lift_flux, nondegeneracy_check
from apcl.freqlattice import Frequency, FrequencyBasis, RealQ, group_basis
from apcl.lift import lift_problem
from apcl.solver import MAX_CELLS, exact_counterexample, read_field
from apcl.trigpoly import TrigPoly

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = CONFIGS.parent / "src"


def decay_config(**over):
    d = {
        "kind": "decay",
        "basis": {"labels": ["1"], "values": [1.0]},
        "flux": {"breakpoints": ["-2", "2"], "pieces": [[["0", "0", "1/2"]]]},
        "initial": {"terms": [
            {"frequency": [["0"]], "re": 0.3},
            {"frequency": [["1"]], "im": -0.25},
        ]},
        "grid": [128],
        "solver": {"t_end": 1.0, "record_times": [0.25, 0.5, 0.75]},
        "thresholds": {"final_l1_to_mean_max": 0.3},
    }
    d.update(over)
    return d


def checkflux_config(**over):
    d = {
        "kind": "check-flux",
        "basis": {"labels": ["1"], "values": [1.0]},
        "flux": {"breakpoints": ["-2", "2"],
                 "pieces": [[["0", "0", "1/2"], ["0", "0", "1/2"]]]},
        "group_frequencies": [[["1"], ["0"]], [["0"], ["1"]]],
        "thresholds": {"expect": "degenerate"},
    }
    d.update(over)
    return d


def wave_config(kind="counterexample", **over):
    d = {
        "kind": kind,
        "basis": {"labels": ["1"], "values": [1.0]},
        "flux": {"breakpoints": ["-1", "1"], "pieces": [[["0", "1/2"]]]},
        "group_frequencies": [[["1"]]],
        "wave": {"a": "-1/4", "b": "1/4", "kbar": [1], "tau": 0.5},
        "grid": [128],
        "solver": {"t_end": 0.5, "record_times": [0.25]},
        "thresholds": {"min_final_ratio": 0.5},
    }
    d.update(over)
    return d


def contraction_config(**over):
    d = {
        "kind": "contraction",
        "basis": {"labels": ["1"], "values": [1.0]},
        "flux": {"breakpoints": ["-2", "2"], "pieces": [[["0", "0", "1/2"]]]},
        "initial": {"terms": [
            {"frequency": [["0"]], "re": 0.3},
            {"frequency": [["1"]], "im": -0.25},
        ]},
        "initial_b": {"terms": [
            {"frequency": [["0"]], "re": 0.1},
            {"frequency": [["1"]], "re": 0.2},
        ]},
        "grid": [64],
        "steps": 40,
        "thresholds": {"max_step_increase": 1e-12},
    }
    d.update(over)
    return d


DELETE = object()
NAN, INF = float("nan"), float("inf")


def edited(make, *path_and_value):
    """``make()`` with the value at a key path replaced, or deleted if it is DELETE."""
    *path, value = path_and_value
    d = make()
    node = d
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return d



# configs that must fail to parse: booleans, non-finite values and
# unparseable strings where numbers are expected, and an out-of-range cfl
BAD_NUMBERS = [
    pytest.param(decay_config, ("flux", "breakpoints", [True, "2"]), id="breakpoint-bool"),
    pytest.param(decay_config, ("initial", "terms", 0, "re", True), id="re-bool"),
    pytest.param(decay_config, ("initial", "terms", 0, "re", "abc"), id="re-string"),
    pytest.param(decay_config, ("initial", "terms", 1, "im", "inf"), id="im-inf-string"),
    pytest.param(decay_config, ("solver", "t_end", "nan"), id="t_end-nan-string"),
    pytest.param(decay_config, ("solver", "t_end", NAN), id="t_end-nan"),
    pytest.param(decay_config, ("solver", "t_end", INF), id="t_end-inf"),
    pytest.param(decay_config, ("solver", "t_end", 10 ** 400), id="t_end-overflow"),
    pytest.param(decay_config, ("solver", "cfl", True), id="solver-cfl-bool"),
    pytest.param(decay_config, ("solver", "record_times", ["1/4", False]), id="record-bool"),
    pytest.param(decay_config, ("solver", "record_times", 0.5), id="record-not-list"),
    # flux reads no range any more: refused as a key it does not read
    pytest.param(decay_config, ("flux", "range", [-1, NAN]), id="range-nan"),
    pytest.param(wave_config, ("wave", "tau", True), id="tau-bool"),
    pytest.param(lambda: cube_config(), ("cube", "offset", [True]), id="offset-bool"),
    pytest.param(contraction_config, ("cfl", 1.0000001), id="cfl-above-one"),
    pytest.param(contraction_config, ("cfl", 0), id="cfl-zero"),
    pytest.param(contraction_config, ("cfl", "x"), id="cfl-string"),
]

SQRT2_BASIS = {"labels": ["1", "sqrt2"], "values": [1.0, 2 ** 0.5]}


def spectrum_config(**over):
    over.setdefault("thresholds", {"max_mean_drift": 1e-9})
    return decay_config(kind="spectrum", probes=[[1]], **over)


def cube_config(**over):
    return spectrum_config(cube={"radii": [2.0, 4.0], "samples_per_unit": 2}, **over)


def sqrt2_decay_config():
    return decay_config(basis=SQRT2_BASIS, initial={"terms": [
        {"frequency": [["0", "0"]], "re": 0.3},
        {"frequency": [["0", "1"]], "im": -0.25},
    ]})


def sqrt2_basis(**over):
    return ("basis", dict(SQRT2_BASIS, **over))


def products(*entries):
    return sqrt2_basis(products=list(entries))


# two terms of amplitude 1e308, at frequencies 0 and 1: |a| sums to 3e308
BIG_TERMS = [{"frequency": [["0"]], "re": 1e308, "im": 0},
             {"frequency": [["1"]], "re": 1e308, "im": 0}]


def shipped(stem):
    """A maker of the shipped config ``configs/<stem>.json``."""
    return lambda: json.loads((CONFIGS / f"{stem}.json").read_text())


def sqrt2_square_config():
    """``checkflux_sqrt2.json`` with the flux (sqrt2/2) u^2 over the group of sqrt2:
    its lift needs sqrt2*sqrt2, and is nondegenerate."""
    d = shipped("checkflux_sqrt2")()
    d["flux"]["pieces"] = [[["0", "0", ["0", "1/2"]]]]
    d["group_frequencies"] = [[["0", "1"]]]
    return d


# configs that must fail to parse, with the field the error must name:
# integer fields that are not integers, thresholds that are not finite
# numbers, and output prefixes that would leave the output directory
BAD_FIELDS = [
    ("steps-string", contraction_config, ("steps", "abc"), "steps"),
    ("steps-bool", contraction_config, ("steps", True), "steps"),
    ("steps-float", contraction_config, ("steps", 2.7), "steps"),
    ("steps-over-budget", contraction_config, ("steps", 1_000_001), "steps"),
    ("grid-bool", decay_config, ("grid", [True]), "grid[0]"),
    ("grid-float", decay_config, ("grid", [128.5]), "grid[0]"),
    ("grids-string", lambda: wave_config(kind="convergence"),
     ("grids", [[32], ["x"]]), "grids[1][0]"),
    # the observed order divides by the log of the h_max ratio
    ("grids-equal", lambda: wave_config(kind="convergence"),
     ("grids", [[32], [64], [64]]), "grids[2]"),
    ("kbar-bool", wave_config, ("wave", "kbar", [True]), "wave.kbar[0]"),
    ("kbar-float", wave_config, ("wave", "kbar", [2.7]), "wave.kbar[0]"),
    ("probe-float", spectrum_config, ("probes", [[1.5]]), "probes[0][0]"),
    ("probe-not-list", spectrum_config, ("probes", [1]), "probes[0]"),
    # integers beyond float range: the numeric layer multiplies them by floats
    ("probe-overflow", shipped("spectrum_probe"), ("probes", [[0, "1e400"]]), "probes[0][1]"),
    ("kbar-overflow", shipped("transport_counterexample"), ("wave", "kbar", ["1e400"]),
     "wave.kbar[0]"),
    ("cube-samples-overflow", cube_config, ("cube", "samples_per_unit", "1e400"),
     "cube.samples_per_unit"),
    ("products-index-bool", decay_config, products([True, 1, ["2", "0"]]),
     "basis.products[0][0]"),
    ("products-index-float", decay_config, products([1, 2.7, ["2", "0"]]),
     "basis.products[0][1]"),
    ("products-index-range", decay_config, products([1, 2, ["2", "0"]]),
     "basis.products[0]"),
    ("products-coords-length", decay_config, products([1, 1, ["2", "0", "0"]]),
     "basis.products[0][2]"),
    ("products-number", decay_config, sqrt2_basis(products=5), "basis.products"),
    ("products-null", decay_config, sqrt2_basis(products=None), "basis.products"),
    # declared products the basis values contradict, which the exact layer
    # would use as given: sqrt2*sqrt2 = 3 on the shipped check-flux config, and
    # sqrt2*sqrt2 = 0, which made (sqrt2/2) u^2 over the group of sqrt2 degenerate
    ("products-sqrt2-squared-3", shipped("checkflux_sqrt2"),
     ("basis", "products", [[1, 1, ["3", "0"]]]), "basis.products[0]"),
    ("products-sqrt2-squared-0", sqrt2_square_config,
     ("basis", "products", [[1, 1, ["0", "0"]]]), "basis.products[0]"),
    ("values-null", decay_config, sqrt2_basis(values=[1, None]), "basis.values[1]"),
    ("values-bool", decay_config, sqrt2_basis(values=[True, 2 ** 0.5]), "basis.values[0]"),
    ("labels-not-strings", decay_config, sqrt2_basis(labels=[1, [2]]), "basis.labels[0]"),
    ("threshold-string", contraction_config,
     ("thresholds", "max_step_increase", "abc"), "thresholds.max_step_increase"),
    ("threshold-bool", contraction_config,
     ("thresholds", "max_step_increase", True), "thresholds.max_step_increase"),
    ("threshold-nan", decay_config,
     ("thresholds", "final_l1_to_mean_max", "nan"), "thresholds.final_l1_to_mean_max"),
    ("expect-typo", checkflux_config, ("thresholds", "expect", "degnerate"),
     "thresholds.expect"),
    # threshold names the run would never evaluate
    ("threshold-typo", contraction_config, ("thresholds", {"max_step_increse": 1e-12}),
     "thresholds.max_step_increse"),
    ("threshold-other-kind", decay_config, ("thresholds", {"max_step_increase": 1e-12}),
     "thresholds.max_step_increase"),
    ("expect-not-check-flux", decay_config, ("thresholds", {"expect": "degenerate"}),
     "thresholds.expect"),
    ("check-flux-bound", checkflux_config, ("thresholds", {"min_order": 0.8}),
     "thresholds.min_order"),
    ("orbit-error-without-cube", spectrum_config,
     ("thresholds", {"max_orbit_mean_error": 0.1}), "thresholds.max_orbit_mean_error"),
    ("prefix-parent", decay_config, ("output", {"prefix": "../../x"}), "output.prefix"),
    ("prefix-absolute", decay_config, ("output", {"prefix": "/tmp/x"}), "output.prefix"),
    ("prefix-subdir", decay_config, ("output", {"prefix": "a/b"}), "output.prefix"),
    ("prefix-backslash", decay_config, ("output", {"prefix": "..\\x"}), "output.prefix"),
    ("prefix-dotdot", decay_config, ("output", {"prefix": ".."}), "output.prefix"),
    ("prefix-number", decay_config, ("output", {"prefix": 5}), "output.prefix"),
    ("output-not-object", decay_config, ("output", "x"), "output"),
    # keys the kind does not read
    ("unknown-key", decay_config, ("tresholds", {"final_l1_to_mean_max": 0.3}), "tresholds"),
    ("decay-cube", decay_config, ("cube", {"radii": [2.0, 4.0]}), "cube"),
    ("decay-probes", decay_config, ("probes", [[1]]), "probes"),
    ("decay-steps", decay_config, ("steps", 5), "steps"),
    ("contraction-solver", contraction_config, ("solver", {"t_end": 1.0}), "solver"),
    ("decay-offset", decay_config, ("offset", [0.37]), "offset"),
    ("spectrum-offset", spectrum_config, ("offset", [0.37]), "offset"),
    # keys a nested object does not read
    ("basis-key", decay_config, ("basis", "lables", ["1"]), "basis.lables"),
    ("flux-key", decay_config, ("flux", "rang", [-1, 1]), "flux.rang"),
    ("flux-range", shipped("burgers_decay"), ("flux", "range", ["-2", "2"]), "flux.range"),
    ("initial-key", decay_config, ("initial", "term", []), "initial.term"),
    ("initial-b-key", contraction_config, ("initial_b", "terms_", []), "initial_b.terms_"),
    ("term-key", decay_config, ("initial", "terms", 1, "imag", 0.1), "initial.terms[1].imag"),
    ("solver-key", decay_config, ("solver", "cfll", 0.01), "solver.cfll"),
    ("wave-key", wave_config, ("wave", "tua", 9.0), "wave.tua"),
    ("cube-key", cube_config, ("cube", "offest", [0.1]), "cube.offest"),
    ("output-key", decay_config, ("output", {"prefx": "x"}), "output.prefx"),
    # keys read only at run time before: dump_fields and cube
    ("dump-fields-string", decay_config, ("dump_fields", "no"), "dump_fields"),
    ("dump-fields-int", decay_config, ("dump_fields", 1), "dump_fields"),
    ("cube-radii-unsorted", cube_config, ("cube", "radii", [100, 50]), "cube.radii"),
    ("cube-radii-empty", cube_config, ("cube", "radii", []), "cube.radii"),
    ("cube-radii-negative", cube_config, ("cube", "radii", [-1, 2]), "cube.radii"),
    ("cube-samples-zero", cube_config, ("cube", "samples_per_unit", 0),
     "cube.samples_per_unit"),
    ("cube-not-object", cube_config, ("cube", [2.0, 4.0]), "cube"),
    # rationals whose float shadow lies beyond float range
    ("coefficient-overflow", decay_config, ("flux", "pieces", 0, 0, 2, "1e400"),
     "flux.pieces[0][0][2]"),
    ("coefficient-coordinate-overflow", sqrt2_decay_config,
     ("flux", "pieces", 0, 0, 2, ["0", "1e400"]), "flux.pieces[0][0][2][1]"),
    ("breakpoint-overflow", decay_config, ("flux", "breakpoints", ["-2", "1e400"]),
     "flux.breakpoints[1]"),
    ("frequency-overflow", decay_config, ("initial", "terms", 1, "frequency", [["1e400"]]),
     "initial.terms[1].frequency[0][0]"),
    ("group-frequency-overflow", wave_config, ("group_frequencies", [[["-1e400"]]]),
     "group_frequencies[0][0][0]"),
    # the declared group is built by the parser, so one of mixed dimension is a config error
    ("group-mixed-dimension", wave_config, ("group_frequencies", [[["1"]], [["1"], ["0"]]]),
     "group_frequencies"),
    ("wave-a-overflow", wave_config, ("wave", "a", "-1e400"), "wave.a"),
    ("wave-b-overflow", wave_config, ("wave", "b", "1e400"), "wave.b"),
    # each coordinate in range, their sum over the basis values not
    ("coefficient-shadow-overflow", sqrt2_decay_config,
     ("flux", "pieces", 0, 0, 2, ["1e308", "1e308"]), "flux.pieces[0][0][2]"),
    ("frequency-shadow-overflow", sqrt2_decay_config,
     ("initial", "terms", 1, "frequency", [["1e308", "1e308"]]),
     "initial.terms[1].frequency[0]"),
    # each amplitude in range, the sum of |a| over the terms and their
    # conjugates not: a nonzero frequency counts twice
    ("amplitude-sum-overflow", shipped("burgers_decay"), ("initial", "terms", BIG_TERMS),
     "initial.terms"),
    ("amplitude-sum-overflow-b", shipped("contraction_pair"), ("initial_b", "terms", BIG_TERMS),
     "initial_b.terms"),
    ("amplitude-conjugate-overflow", decay_config, ("initial", "terms", 1, "re", 1e308),
     "initial.terms"),
]

# sizes beyond MAX_CELLS, refused by parse_config alone: a check that let
# one through would allocate it
OVER_BUDGET = [
    ("grid", decay_config, ("grid", [4097, 4097]), "grid"),
    ("grids", lambda: wave_config(kind="convergence"),
     ("grids", [[32], [2 ** 24 + 1]]), "grids[1]"),
    ("cube-radius", cube_config, ("cube", "radii", [2.0, 1e308]), "cube"),
    ("cube-samples", cube_config, ("cube", "samples_per_unit", 10 ** 7), "cube"),
    ("cube-2d", lambda: cube_config(initial={"terms": [{"frequency": [["1"], ["0"]]}]}),
     ("cube", "radii", [2.0, 2049.0]), "cube"),
]


# --- parsing -------------------------------------------------------------------


def test_kinds_cover_cli():
    assert KINDS == ("check-flux", "decay", "contraction", "counterexample",
                     "convergence", "spectrum")


def test_parse_config_happy_path():
    cfg = parse_config(decay_config())
    assert cfg.kind == "decay"
    assert cfg.grid.shape == (128,)
    assert cfg.solver.t_end == 1.0
    assert cfg.initial.mean == pytest.approx(0.3)


def test_parse_config_unknown_kind():
    with pytest.raises(ConfigError) as e:
        parse_config(decay_config(kind="wiggle"))
    assert e.value.path == "kind"


def test_parse_config_kind_mismatch_with_cli():
    with pytest.raises(ConfigError):
        parse_config(decay_config(), kind="spectrum")


def test_parse_config_missing_required_field():
    d = decay_config()
    del d["grid"]
    with pytest.raises(ConfigError) as e:
        parse_config(d)
    assert "grid" in str(e.value)


def test_parse_config_bad_rational_names_path():
    d = wave_config()
    d["wave"]["a"] = "not-a-number"
    with pytest.raises(ConfigError) as e:
        parse_config(d)
    assert str(e.value).startswith("wave.a")


@pytest.mark.parametrize("make,edit", BAD_NUMBERS)
def test_parse_config_rejects_bool_as_rational(make, edit):
    with pytest.raises(ConfigError):
        parse_config(edited(make, *edit))


@pytest.mark.parametrize("make,edit,field",
                         [pytest.param(*case[1:], id=case[0]) for case in BAD_FIELDS])
def test_parse_config_names_bad_field(make, edit, field):
    with pytest.raises(ConfigError) as e:
        parse_config(edited(make, *edit))
    assert e.value.path == field


def test_parse_config_checks_declared_products_against_the_values():
    # sqrt2*sqrt3 = sqrt6, sqrt2*sqrt6 = 2 sqrt3 and sqrt6*sqrt6 = 6 hold for the
    # float values up to roundoff; 6 + 6e-8 does not, within harness.PRODUCT_RTOL
    r2, r3, r6 = 2 ** 0.5, 3 ** 0.5, 6 ** 0.5
    basis = {"labels": ["1", "sqrt2", "sqrt3", "sqrt6"], "values": [1.0, r2, r3, r6],
             "products": [[1, 2, ["0", "0", "0", "1"]], [1, 3, ["0", "0", "2", "0"]],
                          [3, 3, ["6", "0", "0", "0"]]]}
    initial = {"terms": [{"frequency": [["0", "0", "0", "0"]], "re": 0.3},
                         {"frequency": [["0", "1", "0", "0"]], "im": -0.25}]}
    cfg = parse_config(decay_config(basis=basis, initial=initial))
    assert cfg.basis.products[(3, 3)] == (6, 0, 0, 0)
    basis["products"][2][2][0] = "6.00000006"
    with pytest.raises(ConfigError, match="relative tolerance 1e-09") as e:
        parse_config(decay_config(basis=basis, initial=initial))
    assert e.value.path == "basis.products[2]"


@pytest.mark.parametrize("make,edit,field",
                         [pytest.param(*case[1:], id=case[0]) for case in OVER_BUDGET])
def test_parse_config_refuses_sizes_over_budget(make, edit, field):
    with pytest.raises(ConfigError, match=f"at most {MAX_CELLS}|more than {MAX_CELLS}") as e:
        parse_config(edited(make, *edit))
    assert e.value.path == field


def test_parse_config_takes_a_mean_up_to_float_range():
    # the zero frequency is its own conjugate, so 1e308 there counts once
    parse_config(edited(decay_config, "initial", "terms", 0, "re", 1e308))


@pytest.fixture
def no_realq(monkeypatch):
    """Building a RealQ raises: the program computes in integers and floats only."""
    def refuse(self):
        raise AssertionError("a RealQ was built")

    monkeypatch.setattr(RealQ, "__post_init__", refuse)


def test_parse_config_builds_no_realq(no_realq):
    # the parser hands the exact layer rationals; RealQ is only the reference
    for path in sorted(CONFIGS.glob("*.json")):
        parse_config(json.loads(path.read_text()))


def test_no_product_path_builds_a_realq(no_realq):
    for path in sorted(CONFIGS.glob("*.json")):
        assert run_experiment(parse_config(json.loads(path.read_text()))).passed
    # each exact call on its own: (1 + sqrt2) u^2 + u/2 on [-2, 0], u/2 on [0, 2]
    basis = FrequencyBasis.with_sqrt(2)
    flux = PiecewiseFlux(basis, ["-2", "0", "2"],
                         [[["0", "1/2", ["1", "1"]]], [["0", "1/2"]]])
    freqs = [Frequency.of(basis, [["1", "0"]]), Frequency.of(basis, [["0", "1"]])]
    gb = group_basis(freqs)
    assert not nondegeneracy_check(flux, gb).nondegenerate
    assert lift_flux(flux, gb).n == 2
    assert affine_on(directional(flux, (1, 1), gb), 0, 2) is not None
    assert exact_counterexample(flux, gb, 0, 1, (1, 1)).tau == 0.5 + 0.5 * 2 ** 0.5
    assert lift_problem(TrigPoly(basis, 1, [(freqs[1], 0.25j)]), flux).m == 1


def test_parse_config_takes_sizes_up_to_the_budget():
    assert parse_config(decay_config(grid=[4096, 4096])).grid.shape == (4096, 4096)
    # 4096 points per axis in 2D: exactly MAX_CELLS
    cfg = parse_config(edited(
        lambda: cube_config(initial={"terms": [{"frequency": [["1"], ["0"]]}]}),
        "cube", {"radii": [2.0, 4096.0], "samples_per_unit": 1}))
    assert cfg.cube[0][-1] == 4096.0


def test_parse_config_accepts_integer_strings_and_plain_prefix():
    cfg = parse_config(contraction_config(steps="12", output={"prefix": "pair.v2"}))
    assert cfg.steps == 12 and cfg.prefix == "pair.v2"
    assert parse_config(contraction_config(steps=1_000_000)).steps == 1_000_000
    assert cfg.thresholds == {"max_step_increase": 1e-12}
    assert parse_config(wave_config(thresholds={"min_final_ratio": "1/2"})
                        ).thresholds == {"min_final_ratio": 0.5}


def test_parse_config_takes_the_thresholds_its_kind_evaluates():
    cube = {"radii": [2.0, 4.0], "samples_per_unit": 2}
    cfg = parse_config(spectrum_config(cube=cube, thresholds={
        "max_outside_coeff": 1e-6, "max_mean_drift": 1e-9, "max_orbit_mean_error": 0.1}))
    assert set(cfg.thresholds) == {"max_outside_coeff", "max_mean_drift",
                                   "max_orbit_mean_error"}
    cfg = parse_config(wave_config(thresholds={"min_final_ratio": 0.5, "max_final_error": 1}))
    assert cfg.thresholds == {"min_final_ratio": 0.5, "max_final_error": 1.0}


def test_parse_config_reads_cube_and_dump_fields():
    cfg = parse_config(cube_config(dump_fields=True))
    assert cfg.cube == ((2.0, 4.0), 2, None) and cfg.dump_fields is True
    cfg = parse_config(spectrum_config(cube={}))
    assert cfg.cube == ((50.0, 100.0, 200.0), 4, None) and cfg.dump_fields is False
    cfg = parse_config(spectrum_config(cube={"offset": ["1/4"]}))
    assert cfg.cube == ((50.0, 100.0, 200.0), 4, (0.25,))
    assert parse_config(spectrum_config()).cube is None


# stand-ins for any one JSON value: every type, the falsy ones, and a
# rational beyond float range
MUTANTS = (None, True, 0, 1.5, "x", "1e400", [], {})


def value_paths(node, path=()):
    """The key path of every value below ``node``, at every depth."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from value_paths(value, path + (key,))


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_parse_config_survives_every_value_mutation(path):
    """Any one value of a shipped config replaced: parse_config returns or refuses.

    The root is not mutated: ``load_config`` refuses a non-object root.
    """
    d = json.loads(path.read_text())
    for keys in value_paths(d):
        for value in MUTANTS:
            try:
                parse_config(edited(lambda: copy.deepcopy(d), *keys, value))
            except ConfigError:
                pass
            except Exception as e:  # anything else is a traceback at the CLI
                pytest.fail(f"{'.'.join(map(str, keys))} = {value!r}: {e!r}")


def test_bad_cube_is_refused_before_the_run(tmp_path, capsys, monkeypatch):
    # the cube was read only after the solve; now parsing refuses it
    def no_run(cfg):
        pytest.fail("the experiment ran")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    d = json.loads((CONFIGS / "spectrum_probe.json").read_text())
    d["cube"]["radii"] = [100, 50]
    cp = write_config(tmp_path, d)
    rc = cli.main(["spectrum", "--config", cp, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "cube.radii" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_parse_config_accepts_rational_strings():
    d = edited(decay_config, "solver", {"t_end": "3/4", "cfl": "2/5",
                                         "record_times": ["1/4", 0.5]})
    d["initial"]["terms"][0]["re"] = "3/10"
    cfg = parse_config(d)
    assert cfg.solver.t_end == 0.75 and cfg.solver.cfl == 0.4
    assert cfg.solver.record_times == (0.25, 0.5)
    assert cfg.initial.mean == 0.3
    assert parse_config(contraction_config(cfl="1/2")).cfl == 0.5


def test_parse_config_wave_needs_a_below_b():
    d = wave_config()
    d["wave"]["a"], d["wave"]["b"] = "1/4", "-1/4"
    with pytest.raises(ConfigError):
        parse_config(d)


# --- file output ---------------------------------------------------------------


def test_write_csv_cell_formats(tmp_path):
    p = tmp_path / "t.csv"
    rows = [{"a": True, "b": 3, "c": 0.1, "d": Fraction(1, 3), "e": "x"}]
    write_csv(rows, str(p), list(rows[0]))
    assert p.read_text() == "a,b,c,d,e\ntrue,3,0.1,1/3,x\n"


def test_write_csv_float_repr_roundtrip(tmp_path):
    p = tmp_path / "t.csv"
    v = 0.1 + 0.2
    write_csv([{"x": v}], str(p), ["x"])
    cell = p.read_text().splitlines()[1]
    assert float(cell) == v


def test_write_csv_empty_rows(tmp_path):
    p = tmp_path / "t.csv"
    write_csv([], str(p), columns=["a", "b"])
    assert p.read_text() == "a,b\n"


def test_write_csv_column_order_and_gaps(tmp_path):
    p = tmp_path / "t.csv"
    write_csv([{"b": 1, "a": 2}, {"a": 5}], str(p), columns=["a", "b"])
    assert p.read_text() == "a,b\n2,1\n5,\n"


def test_write_csv_deterministic(tmp_path):
    rows = [{"t": 0.1 * i, "v": 1.0 / (i + 1)} for i in range(20)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(rows, str(p1), ["t", "v"])
    write_csv(rows, str(p2), ["t", "v"])
    assert p1.read_bytes() == p2.read_bytes()


def test_render_svg_two_series(tmp_path):
    p = tmp_path / "p.svg"
    render_svg([("one", [0, 1, 2], [1.0, 2.0, 1.5]),
                ("two", [0, 1, 2], [0.5, 0.4, 0.6])], str(p))
    root = ET.fromstring(p.read_text())
    assert root.tag.endswith("svg")
    body = p.read_text()
    assert "one" in body and "two" in body


def test_render_svg_single_point(tmp_path):
    p = tmp_path / "p.svg"
    render_svg([("dot", [1.0], [2.0])], str(p))
    ET.fromstring(p.read_text())


def test_svg_escape_matches_saxutils():
    from xml.sax.saxutils import escape

    for text in ("a & b", "<x>", "u < 1 & v > 2", "\"quoted\" 'single'", "&amp;", "&lt;>",
                 "", "plain"):
        assert harness._escape(text) == escape(text)


def test_cli_import_loads_no_network_modules():
    # xml.sax.saxutils alone pulls these in, tens of ms of start-up
    code = ("import sys, apcl.cli; "
            "print(sorted(m for m in ('xml.sax', 'urllib.request', 'http.client', "
            "'email', 'ssl') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_render_svg_refuses_empty(tmp_path):
    p = tmp_path / "p.svg"
    with pytest.raises(ValueError):
        render_svg([], str(p))
    with pytest.raises(ValueError):
        render_svg([("z", [0.0, np.nan, 1.0], [np.inf, 0.5, -np.inf])], str(p))


def test_render_svg_refuses_series_of_unequal_lengths(tmp_path):
    with pytest.raises(ValueError) as e:
        render_svg([("s", [0, 1], [1.0])], str(tmp_path / "p.svg"))
    assert str(e.value) == "series 's': x/y length mismatch"


def test_save_names_a_plot_with_no_finite_point_and_writes_the_rest(tmp_path, capsys):
    rows = [{"t": 0.0, "y": NAN}]
    report = harness.RunReport(kind="decay", config={}, verdicts={}, scalars={},
                               tables={"series": (rows, ["t", "y"])},
                               plots={"series": [("y", [0.0], [NAN])]}, wall_clock_s=0.0)
    paths = report.save(str(tmp_path), plot=True)
    svg = tmp_path / "decay_series.svg"
    assert capsys.readouterr().err == f"not plotted: {svg}: no plottable points\n"
    assert paths == [str(tmp_path / "decay_report.json"), str(tmp_path / "decay_series.csv")]
    assert (tmp_path / "decay_series.csv").read_text() == "t,y\n0.0,nan\n"
    assert not svg.exists()


@pytest.mark.parametrize("y", [1e-3, 0.2, 1.0, 123.456])
def test_ticks_of_a_one_ulp_range(y):
    # a step below half an ulp of y: adding it to a tick would never move it
    ticks = harness._ticks(y, float(np.nextafter(y, np.inf)))
    assert 1 <= len(ticks) <= 8
    assert all(t == pytest.approx(y, rel=1e-15) for t in ticks)


def test_ticks_are_counted_multiples_of_the_step():
    assert harness._ticks(0.0, 1.0) == [0.0, 0.25, 0.5, 0.75, 1.0]
    # 0.3 / 0.1 is 2.9999999999999996: the tick at t_end is kept
    assert harness._ticks(0.0, 0.3) == [0.0, 0.1, 0.2, 0.30000000000000004]
    assert [f"{t:g}" for t in harness._ticks(-0.4, 0.4)] == ["-0.4", "-0.2", "0", "0.2", "0.4"]
    assert harness._ticks(2.0, 2.0) == [2.0]


def test_tick_labels_tell_ticks_apart():
    # {:g} where it tells the ticks apart, as every shipped plot needs
    assert harness._tick_labels([0.0, 0.25, 0.5]) == ["0", "0.25", "0.5"]
    assert harness._tick_labels([1.0, 1.0000001]) == ["1", "1.0000001"]
    # two floats one ulp apart take all 17 digits
    lo, hi = 0.19999999999999998, 0.2
    assert harness._ticks(lo, hi) == [lo, hi]
    assert harness._tick_labels([lo, hi]) == ["0.19999999999999998", "0.20000000000000001"]


def test_render_svg_tells_apart_distances_one_ulp_apart(tmp_path):
    # the contraction distances of test_cli_plot_of_distances_one_ulp_apart_returns
    p = tmp_path / "ulp.svg"
    render_svg([("l1_distance", [0.0, 0.012784090909090908], [0.19999999999999998, 0.2])],
               str(p))
    root = ET.fromstring(p.read_text())
    ylabels = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")
               if t.get("text-anchor") == "end"]
    assert ylabels == ["0.19999999999999998", "0.20000000000000001"]


def _ylabels(path) -> list[str]:
    root = ET.fromstring(path.read_text())
    return [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")
            if t.get("text-anchor") == "end"]


def test_render_svg_zero_in_the_series_gets_a_linear_axis(tmp_path):
    # no log axis can hold the 0, so every point is drawn on a linear one
    p = tmp_path / "p.svg"
    render_svg([("z", [0, 1, 2], [0.0, 1e-3, 1e-1])], str(p))
    (line,) = ET.fromstring(p.read_text()).iter("{http://www.w3.org/2000/svg}polyline")
    assert len(line.get("points").split()) == 3
    assert "1e-1" not in _ylabels(p)
    assert float(_ylabels(p)[0]) == 0.0


def test_render_svg_log_axis_needs_two_powers_of_ten(tmp_path):
    # 0.01 and 0.1 lie between 0.005 and 0.3: two decade labels on a log axis
    p = tmp_path / "log.svg"
    render_svg([("s", [0, 1, 2], [0.3, 0.02, 0.005])], str(p))
    assert _ylabels(p) == ["1e-2", "1e-1"]
    # only 0.1 lies between 0.05 and 0.9: a log axis would carry one label
    p = tmp_path / "lin.svg"
    render_svg([("s", [0, 1, 2], [0.9, 0.1, 0.05])], str(p))
    assert len(_ylabels(p)) >= 2
    assert not any(lab.startswith("1e") for lab in _ylabels(p))


def test_render_svg_deterministic(tmp_path):
    # two decades: the log axis
    series = [("s", [0, 1, 2, 3], [0.3, 0.1, 0.05, 0.002])]
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    render_svg(series, str(p1))
    render_svg(series, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_render_svg_escapes_labels(tmp_path):
    p = tmp_path / "p.svg"
    render_svg([("a<b&c", [0, 1], [1, 2])], str(p))
    ET.fromstring(p.read_text())


# --- runners -------------------------------------------------------------------


def test_check_flux_degenerate_verdict():
    rep = run_experiment(parse_config(checkflux_config()))
    assert rep.passed
    assert rep.verdicts == {"expect": True}
    (row,), cols = rep.tables["verdict"]
    assert cols[0] == "nondegenerate"
    assert row["nondegenerate"] is False
    assert row["kbar"] in ("1,-1", "-1,1")


def test_check_flux_expect_mismatch_fails():
    d = checkflux_config()
    d["thresholds"]["expect"] = "nondegenerate"
    rep = run_experiment(parse_config(d))
    assert not rep.passed


def test_decay_series_shape_and_monotone_tail():
    rep = run_experiment(parse_config(decay_config()))
    assert rep.passed
    rows, cols = rep.tables["series"]
    assert cols == ["t", "l1_to_mean", "min", "max", "mass"]
    assert [r["t"] for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
    vals = [r["l1_to_mean"] for r in rows]
    # sine data sharpens into a shock quickly; distances then decay
    assert all(b <= a + 1e-3 for a, b in zip(vals, vals[1:]))
    assert rows[-1]["mass"] == pytest.approx(0.3, abs=1e-12)


def test_contraction_never_increases():
    rep = run_experiment(parse_config(contraction_config()))
    assert rep.passed
    assert rep.scalars["max_step_increase"] <= 0.0
    rows, _ = rep.tables["series"]
    assert rows[0]["step"] == 0 and rows[-1]["step"] == 40


def test_contraction_caps_dt_at_unit_time():
    # a flux constant on the joint range has every alpha 0 and no CFL step
    d = contraction_config(flux={"breakpoints": ["-2", "2"], "pieces": [[["0"]]]}, steps=5)
    rep = run_experiment(parse_config(d))
    rows, _ = rep.tables["series"]
    assert [r["t"] for r in rows] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert [r["step"] for r in rows] == [0, 1, 2, 3, 4, 5]
    assert rep.scalars["max_step_increase"] == 0.0
    assert rep.stepping == [{"steps": 5, "dt_min": 1.0, "dt_max": 1.0, "courant_max": 0.0}]


def test_counterexample_no_decay():
    rep = run_experiment(parse_config(wave_config()))
    assert rep.passed
    assert rep.scalars["final_ratio"] >= 0.5


def test_convergence_orders():
    d = wave_config(kind="convergence")
    del d["grid"]
    d["grids"] = [[32], [64], [128]]
    d["solver"] = {"t_end": 0.5}
    d["thresholds"] = {"min_order": 0.7}
    rep = run_experiment(parse_config(d))
    assert rep.passed
    rows, cols = rep.tables["errors"]
    assert cols == ["cells", "h_max", "l1_error", "order"]
    errs = [r["l1_error"] for r in rows]
    assert errs[0] > errs[1] > errs[2]


def test_spectrum_probe_rejects_bad_probe_length():
    d = spectrum_config()
    d["probes"] = [[0, 1]]
    with pytest.raises(ConfigError) as e:
        run_experiment(parse_config(d))
    assert "probes" in str(e.value)


def test_cube_offset_moves_the_sampled_orbit():
    base = run_experiment(parse_config(cube_config()))
    zero = run_experiment(parse_config(edited(cube_config, "cube", "offset", [0])))
    moved = run_experiment(parse_config(edited(cube_config, "cube", "offset", ["3/10"])))
    assert zero.tables["cube"] == base.tables["cube"]
    # z is reduced mod 1 before Lambda x is added: an integer offset of any
    # size is the same torus point as 0 and keeps every digit of Lambda x
    whole = run_experiment(parse_config(edited(cube_config, "cube", "offset", [1e16])))
    assert whole.tables["cube"] == base.tables["cube"]
    assert moved.tables["cube"] != base.tables["cube"]
    assert moved.tables["series"] == base.tables["series"]


def test_cli_cube_offset_of_wrong_length_is_a_config_error(tmp_path, capsys):
    d = edited(cube_config, "cube", "offset", [0.1, 0.2])
    rc = cli.main(["spectrum", "--config", write_config(tmp_path, d),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == ("config error: cube.offset: "
                                       "offset z must have m = 1 entries, got 2\n")


def every_threshold_config(kind):
    """A tiny config of ``kind`` that sets every threshold the kind declares."""
    if kind == "counterexample":
        return wave_config(thresholds={"min_final_ratio": 0.5, "max_final_error": 0.05})
    if kind == "convergence":
        d = wave_config(kind="convergence", grids=[[32], [64]], solver={"t_end": 0.25},
                        thresholds={"min_order": 0.7})
        del d["grid"]
        return d
    if kind == "spectrum":
        return cube_config(thresholds={"max_outside_coeff": 1e-6, "max_mean_drift": 1e-9,
                                       "max_orbit_mean_error": 0.1})
    return {"check-flux": checkflux_config, "decay": decay_config,
            "contraction": contraction_config}[kind]()


@pytest.mark.parametrize("kind", KINDS)
def test_every_threshold_is_judged_against_its_scalar(kind):
    d = every_threshold_config(kind)
    bounds = EXPERIMENTS[kind].thresholds
    assert set(d["thresholds"]) == set(bounds)
    rep = run_experiment(parse_config(d))
    assert set(rep.verdicts) == set(bounds)
    values = {name: rep.scalars[b.scalar] for name, b in bounds.items()}
    # a bound at the reported value holds; one step past it fails
    at, past = {}, {}
    for name, b in bounds.items():
        v = values[name]
        if b.direction == "expect":
            at[name] = "nondegenerate" if v else "degenerate"
            past[name] = "degenerate" if v else "nondegenerate"
        else:
            at[name] = v
            past[name] = float(np.nextafter(v, -np.inf if b.direction == "max" else np.inf))
    held = run_experiment(parse_config(dict(d, thresholds=at)))
    assert held.verdicts == dict.fromkeys(bounds, True) and held.passed is True
    broken = run_experiment(parse_config(dict(d, thresholds=past)))
    assert broken.verdicts == dict.fromkeys(bounds, False) and broken.passed is False
    assert {name: broken.scalars[b.scalar] for name, b in bounds.items()} == values


def test_threshold_without_its_scalar_is_an_internal_error(tmp_path, capsys, monkeypatch):
    silent = EXPERIMENTS["decay"]._replace(run=lambda cfg: ({}, {}, {}, {}, []))
    monkeypatch.setitem(EXPERIMENTS, "decay", silent)
    with pytest.raises(AssertionError, match="final_l1_to_mean"):
        run_experiment(parse_config(decay_config()))
    cp = write_config(tmp_path, decay_config())
    assert cli.main(["decay", "--config", cp, "--out", str(tmp_path / "out")]) == 5
    assert capsys.readouterr().err.startswith("internal error: threshold")


def _plant_after_every_carried_sweep(monkeypatch, value):
    """Write ``value`` into the first cell of every sweep's new values on a carried bound."""
    real = solver_mod._carried_sweep

    def planted(*args):
        phi = real(*args)
        phi[0][0] = value
        return phi

    monkeypatch.setattr(solver_mod, "_carried_sweep", planted)


def test_a_range_that_leaves_the_carried_bound_is_an_internal_error(tmp_path, capsys,
                                                                   monkeypatch):
    # the counterexample's wave [-1/4, 1/4] on u/2 carries a bound from its
    # first step; a cell written to 0.3 after every sweep leaves it, and
    # the exact range read at the record time 0.25 shows that
    _plant_after_every_carried_sweep(monkeypatch, 0.3)
    cp = write_config(tmp_path, wave_config())
    assert cli.main(["counterexample", "--config", cp, "--out", str(tmp_path / "out")]) == 5
    err = capsys.readouterr().err
    assert re.fullmatch(r"internal error: the range \[-0\.249\d+, 0\.3\] at t=0\.25 left "
                        r"the carried bound \[-0\.2498\d+, 0\.2498\d+\]\n", err), err
    assert not (tmp_path / "out").exists()


def test_a_contraction_that_leaves_the_carried_bound_is_an_internal_error(tmp_path, capsys,
                                                                         monkeypatch):
    # the shipped contraction pair on the wave flux's affine middle piece
    # u/2 on [-1/2, 1/2], every amplitude times 0.3: the pair's joint range
    # [-0.12, 0.24] carries a bound from the first step, and 0.45, written
    # into a cell after every sweep, stays inside the piece but leaves the
    # bound; the series reads no range, so the check after the last step
    # shows it
    d = json.loads((CONFIGS / "contraction_pair.json").read_text())
    d["flux"] = {"breakpoints": ["-2", "-1/2", "1/2", "2"],
                 "pieces": [[["1/8", "1", "1/2"]], [["0", "1/2"]], [["1/8", "0", "1/2"]]]}
    for data in ("initial", "initial_b"):
        for term in d[data]["terms"]:
            for part in ("re", "im"):
                if part in term:
                    term[part] *= 0.3
    cp = write_config(tmp_path, d)
    # unplanted, it passes
    assert cli.main(["contraction", "--config", cp, "--out", str(tmp_path / "plain")]) == 0
    capsys.readouterr()
    _plant_after_every_carried_sweep(monkeypatch, 0.45)
    assert cli.main(["contraction", "--config", cp, "--out", str(tmp_path / "out")]) == 5
    err = capsys.readouterr().err
    # 200 steps at dt = 0.45 (1/256) / 0.5 take the pair to t = 0.703125
    assert re.fullmatch(r"internal error: the range \[-0\.\d+, 0\.45\] at t=0\.703125 left "
                        r"the carried bound \[-0\.1199\d+, 0\.2399\d+\]\n", err), err
    assert not (tmp_path / "out").exists()


def test_report_passed_is_none_without_thresholds(tmp_path):
    assert run_experiment(parse_config(checkflux_config())).passed is True
    failing = checkflux_config(thresholds={"expect": "nondegenerate"})
    assert run_experiment(parse_config(failing)).passed is False
    rep = run_experiment(parse_config(checkflux_config(thresholds={})))
    assert rep.verdicts == {} and rep.passed is None
    rep.save(str(tmp_path))
    payload = json.loads((tmp_path / "check_flux_report.json").read_text())
    assert payload["passed"] is None


def test_report_save_layout(tmp_path):
    rep = run_experiment(parse_config(decay_config()))
    paths = rep.save(str(tmp_path), prefix="demo", plot=True)
    names = sorted(p.split("/")[-1] for p in paths)
    assert names == ["demo_report.json", "demo_series.csv", "demo_series.svg"]
    payload = json.loads((tmp_path / "demo_report.json").read_text())
    assert payload["kind"] == "decay"
    assert payload["config"] == decay_config()
    assert payload["verdicts"] == {"final_l1_to_mean_max": True}
    assert payload["wall_clock_s"] > 0


@pytest.mark.parametrize("kind, cfl", [("decay", None), ("decay", 0.3), ("contraction", None),
                                       ("contraction", 0.45), ("counterexample", None),
                                       ("convergence", None), ("spectrum", None)])
def test_report_says_how_the_run_stepped(kind, cfl, tmp_path, monkeypatch):
    # one stepper record per solver run, per grid for convergence: its
    # steps are the steps its stepper took on that grid, its Courant peak the cfl
    d = every_threshold_config(kind)
    if cfl is None:
        cfl = 0.9
    elif kind == "contraction":
        d["cfl"] = cfl
    else:
        d["solver"] = dict(d["solver"], cfl=cfl)
    shapes = [tuple(g) for g in (d["grids"] if kind == "convergence" else [d["grid"]])]
    grids = []

    real = solver_mod._Stepper.advance

    def counted(stepper, t_remaining):
        grids.append(stepper.grid.shape)
        return real(stepper, t_remaining)

    monkeypatch.setattr(solver_mod._Stepper, "advance", counted)
    rep = run_experiment(parse_config(d))
    assert [r["steps"] for r in rep.stepping] == [grids.count(s) for s in shapes]
    assert len(grids) == sum(r["steps"] for r in rep.stepping)
    for r in rep.stepping:
        assert r["steps"] > 0 and 0.0 < r["dt_min"] <= r["dt_max"]
        assert r["courant_max"] <= cfl
    # a step that no record time caps runs at the cfl itself
    assert rep.stepping[0]["courant_max"] == cfl
    rep.save(str(tmp_path), prefix="demo")
    payload = json.loads((tmp_path / "demo_report.json").read_text())
    assert payload["stepping"] == rep.stepping


def test_report_field_dump_roundtrip(tmp_path):
    d = decay_config(dump_fields=True)
    rep = run_experiment(parse_config(d))
    rep.save(str(tmp_path), prefix="dump")
    f = read_field(str(tmp_path / "dump_final.bin"))
    assert f.grid.shape == (128,)
    assert f.mean() == pytest.approx(0.3, abs=1e-12)


def test_runs_are_deterministic(tmp_path):
    cfg = parse_config(decay_config())
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    p1, p2 = tmp_path / "a", tmp_path / "b"
    r1.save(str(p1))
    r2.save(str(p2))
    assert (p1 / "decay_series.csv").read_bytes() == \
        (p2 / "decay_series.csv").read_bytes()


# --- CLI -----------------------------------------------------------------------


def write_config(tmp_path, d, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(d))
    return str(p)


def test_cli_pass_exit_zero(tmp_path, capsys):
    cp = write_config(tmp_path, decay_config())
    rc = cli.main(["decay", "--config", cp, "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS final_l1_to_mean_max" in out
    assert (tmp_path / "out" / "decay_report.json").exists()


@pytest.mark.parametrize("edit", [("thresholds", DELETE), ("thresholds", {})],
                         ids=["missing", "empty"])
def test_cli_no_thresholds_is_no_verdict(tmp_path, capsys, edit):
    cp = write_config(tmp_path, edited(decay_config, *edit))
    rc = cli.main(["decay", "--config", cp, "--out", str(tmp_path / "out")])
    assert rc == 4
    out = capsys.readouterr().out.splitlines()
    assert "NO VERDICT (no thresholds configured)" in out
    assert not any(line.startswith(("PASS ", "FAIL ")) for line in out)
    # the outputs are still written
    payload = json.loads((tmp_path / "out" / "decay_report.json").read_text())
    assert payload["passed"] is None and payload["verdicts"] == {}
    assert (tmp_path / "out" / "decay_series.csv").exists()


def test_cli_help_comes_from_the_kind_table():
    text = cli._build_parser().format_help()
    for kind, exp in EXPERIMENTS.items():
        assert kind in text and exp.help in text


def test_cli_threshold_failure_exit_four(tmp_path):
    d = decay_config()
    d["thresholds"]["final_l1_to_mean_max"] = 1e-9
    cp = write_config(tmp_path, d)
    rc = cli.main(["decay", "--config", cp, "--out", str(tmp_path / "out")])
    assert rc == 4
    # report is still written for a failed verdict
    assert (tmp_path / "out" / "decay_report.json").exists()


@pytest.mark.parametrize("make,edit", [
    pytest.param(decay_config, ("solver", DELETE), id="missing-solver"),
    *BAD_NUMBERS,
    *(pytest.param(make, edit, id=name) for name, make, edit, _ in BAD_FIELDS),
])
def test_cli_config_error_exit_two(tmp_path, capsys, make, edit):
    d = edited(make, *edit)
    cp = write_config(tmp_path, d)
    rc = cli.main([d["kind"], "--config", cp, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_cli_missing_file_exit_two(tmp_path):
    rc = cli.main(["decay", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path)])
    assert rc == 2


def test_cli_kind_mismatch_exit_two(tmp_path):
    cp = write_config(tmp_path, decay_config())
    rc = cli.main(["spectrum", "--config", cp, "--out", str(tmp_path)])
    assert rc == 2


def test_cli_refusal_exit_three(tmp_path, capsys):
    # quadratic flux cannot carry an exact traveling wave
    d = wave_config()
    d["flux"] = {"breakpoints": ["-1", "1"], "pieces": [[["0", "0", "1/2"]]]}
    cp = write_config(tmp_path, d)
    rc = cli.main(["counterexample", "--config", cp, "--out", str(tmp_path)])
    assert rc == 3
    assert "refused" in capsys.readouterr().err


def test_cli_decides_a_flux_it_cannot_lift(tmp_path, capsys):
    # sqrt3 u + u^2/2 over the group sqrt2, no products declared: the
    # decision reads degree >= 2 only, the lift needs sqrt2*sqrt3 at degree 1
    basis = {"labels": ["1", "sqrt2", "sqrt3"], "values": [1.0, 2 ** 0.5, 3 ** 0.5]}
    flux = {"breakpoints": ["-1", "1"], "pieces": [[["0", ["0", "0", "1"], "1/2"]]]}
    group = [[["0", "1", "0"]]]
    d = checkflux_config(basis=basis, flux=flux, group_frequencies=group,
                         thresholds={"expect": "nondegenerate"})
    rc = cli.main(["check-flux", "--config", write_config(tmp_path, d),
                   "--out", str(tmp_path / "check")])
    assert rc == 0
    assert "nondegenerate = 1.0" in capsys.readouterr().out.splitlines()
    d = wave_config(basis=basis, flux=flux, group_frequencies=group)
    rc = cli.main(["counterexample", "--config", write_config(tmp_path, d),
                   "--out", str(tmp_path / "wave")])
    assert rc == 3
    assert "sqrt2*sqrt3 is not declared" in capsys.readouterr().err
    assert not (tmp_path / "wave").exists()


@pytest.mark.parametrize("stem, wave", [
    ("transport_counterexample", {"a": "0", "b": "1/2", "kbar": [0]}),
    ("transport_counterexample", {"a": "-1/4", "b": "1/4", "kbar": [0]}),
    ("transport_convergence", {"a": "0", "b": "1/2", "kbar": [0]}),
])
def test_cli_zero_kbar_is_a_config_error(tmp_path, capsys, stem, wave):
    # xi = 0 makes every flux affine and the wave a constant: its distance
    # to the mean is 0, a mean of a = -b is not real, and no order is measured
    d = json.loads((CONFIGS / f"{stem}.json").read_text())
    d["wave"] = wave
    rc = cli.main([d["kind"], "--config", write_config(tmp_path, d),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: wave.kbar: needs a nonzero entry")
    assert not (tmp_path / "out").exists()


def test_cli_aliased_probe_is_a_config_error_before_the_solve(tmp_path, capsys, monkeypatch):
    # on 128 cells the probe 128 reads the mode 0, the data's mean
    def no_solve(*args):
        raise AssertionError("the solve ran")

    monkeypatch.setattr(harness, "run", no_solve)
    d = json.loads((CONFIGS / "spectrum_probe.json").read_text())
    d["probes"] = [[0, 128], [0, 1]]
    rc = cli.main(["spectrum", "--config", write_config(tmp_path, d),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "config error: probes[0]: needs 2|k_j| < N_j on the grid [128, 128], got [0, 128]")
    assert not (tmp_path / "out").exists()


def test_spectrum_takes_probes_up_to_the_alias_bound():
    d = json.loads((CONFIGS / "spectrum_probe.json").read_text())
    d["grid"] = [16, 128]
    d["solver"]["t_end"] = 0.05
    d["probes"] = [[7, 63], [-7, -63], [0, 63]]
    d.pop("cube")
    d["thresholds"] = {"max_mean_drift": 1e-3}
    rows, _ = run_experiment(parse_config(d)).tables["probes"]
    assert [r["kbar"] for r in rows] == ["7,63", "-7,-63", "0,63"]
    d["probes"] = [[8, 0]]
    with pytest.raises(ConfigError) as e:
        run_experiment(parse_config(d))
    assert e.value.path == "probes[0]"


def test_cli_step_budget_exit_three(tmp_path, capsys):
    # a data frequency of 10^6 scales the lifted flux, and the step count, by 10^6
    d = json.loads((CONFIGS / "burgers_decay.json").read_text())
    d["initial"]["terms"][1]["frequency"] = [["1000000"]]
    cp = write_config(tmp_path, d)
    t0 = time.perf_counter()
    rc = cli.main(["decay", "--config", cp, "--out", str(tmp_path / "out")])
    assert rc == 3
    assert time.perf_counter() - t0 < 10.0
    assert "the 1000000 a run may take" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_data_outside_working_range_refused_before_observing(tmp_path, capsys):
    # |a| sums to 1.2e308, in float range, but the cell averages leave the
    # flux's [-2, 2]: refused before the t = 0 row, whose L1 sum would
    # overflow (a RuntimeWarning, an error under pytest)
    d = json.loads((CONFIGS / "burgers_decay.json").read_text())
    for term in d["initial"]["terms"]:
        term["re"] = 4e307
    cp = write_config(tmp_path, d)
    rc = cli.main(["decay", "--config", cp, "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "refused: values [" in err
    assert "] leave the working range [-2.0, 2.0] of the flux" in err
    assert not (tmp_path / "out").exists()


def aliased_burgers_config():
    """``burgers_decay.json`` with one more term, at 1/1000.

    The data's group is generated by 1/1000, so the frequency-1 term sits at
    k = +-1000 on the 256-cell torus; its cell averages would alias it to
    k = -24, and the decay would start from a field without it.
    """
    d = shipped("burgers_decay")()
    d["initial"]["terms"].append({"frequency": [["1/1000"]], "re": 0.1})
    return d


def n4_cube_config():
    """A spectrum cube over n = 4 data of rank 1, which the parser refuses before the lift."""
    return cube_config(
        flux={"breakpoints": ["-2", "2"], "pieces": [[["0", "0", "1/2"]] * 4]},
        initial={"terms": [{"frequency": [["0"]] * 4, "re": 0.3},
                           {"frequency": [["1"], ["0"], ["0"], ["0"]], "im": -0.25}]},
        grid=[16])


def undeclared_witness_config():
    """(u^2, sqrt3 u + u^2) over the group of lambda = (sqrt2, -sqrt2), no products declared.

    lambda.phi has no u^2 term, so the decision finds the witness xi = lambda,
    whose degree-1 part -sqrt2 sqrt3 u needs a product the basis does not declare.
    """
    return checkflux_config(
        basis={"labels": ["1", "sqrt2", "sqrt3"], "values": [1.0, 2 ** 0.5, 3 ** 0.5]},
        flux={"breakpoints": ["-1", "1"],
              "pieces": [[["0", "0", "1"], ["0", ["0", "0", "1"], "1"]]]},
        group_frequencies=[[["0", "1", "0"], ["0", "-1", "0"]]], thresholds={})


# a flux of two components, for one-dimensional data or a two-dimensional group
TWO_COMPONENTS = {"breakpoints": ["-2", "2"], "pieces": [[["0", "0", "1/2"], ["0", "0", "1/2"]]]}

# refusals a config can reach, each with its exit code and message; a config
# given as a string is written as it stands
CONFIG_REFUSALS = [
    pytest.param("decay", "nope", 2, "config error: {path}: invalid JSON: "
                 "Expecting value: line 1 column 1 (char 0)", id="invalid-json"),
    pytest.param("decay", "[]", 2, "config error: {path}: top-level config must be an object",
                 id="top-level-list"),
    pytest.param("check-flux", edited(checkflux_config, "group_frequencies", DELETE), 2,
                 "config error: initial: check-flux needs initial data or group_frequencies",
                 id="check-flux-without-data-or-group"),
    pytest.param("decay", decay_config(basis={"labels": ["1", "1"], "values": [1.0, 1.0]}), 2,
                 "config error: basis: basis labels must be distinct", id="duplicate-labels"),
    pytest.param("contraction", contraction_config(steps="5/2"), 2,
                 "config error: steps: expected an integer, got '5/2'", id="fractional-steps"),
    pytest.param("decay", edited(decay_config, "initial", "terms", 1, "frequency", [["1"], ["0"]]),
                 2, "config error: initial.terms[1].frequency: a 2-dimensional frequency "
                 "among 1-dimensional ones",
                 id="term-of-another-dimension"),
    pytest.param("decay", decay_config(flux={
        "breakpoints": ["-2", "0", "2"],
        "pieces": [[["0", "0", "1/2"]], [["0", "0", "1/2"], ["0"]]]}), 2,
                 "config error: flux: all pieces must have the same component count",
                 id="pieces-of-different-component-counts"),
    pytest.param("counterexample", edited(wave_config, "wave", "a", "-2"), 3,
                 "refused: [a, b] = [-2, 1/4] leaves the breakpoint span [-1, 1]",
                 id="wave-outside-the-span"),
    pytest.param("counterexample", edited(wave_config, "wave", "kbar", [1, 0]), 3,
                 "refused: kbar [1, 0] has 2 entries for a group of rank 1",
                 id="kbar-of-another-length"),
    # one text for a flux with another component count than the data's
    # dimension, whether the data are decided or lifted
    pytest.param("check-flux", edited(lambda: checkflux_config(
        initial={"terms": [{"frequency": [["1"]], "re": 0.3}]}), "group_frequencies", DELETE), 3,
                 "refused: a 2-component flux for 1-dimensional frequencies",
                 id="check-flux-data-of-another-dimension"),
    pytest.param("decay", decay_config(flux=TWO_COMPONENTS), 3,
                 "refused: a 2-component flux for 1-dimensional frequencies",
                 id="decay-data-of-another-dimension"),
    # one text for frequencies of different dimensions, wherever they meet
    pytest.param("decay", decay_config(flux=TWO_COMPONENTS, group_frequencies=[[["1"], ["0"]]]),
                 3, "refused: a 1-dimensional frequency among 2-dimensional ones",
                 id="decay-data-outside-the-declared-dimension"),
    pytest.param("contraction", contraction_config(
        initial_b={"terms": [{"frequency": [["1"], ["0"]], "re": 0.2}]}), 3,
                 "refused: a 2-dimensional frequency among 1-dimensional ones",
                 id="contraction-pair-of-different-dimensions"),
    pytest.param("check-flux", checkflux_config(group_frequencies=[[["1"]], [["1"], ["0"]]]), 2,
                 "config error: group_frequencies: a 2-dimensional frequency among "
                 "1-dimensional ones", id="group-frequencies-of-mixed-dimension"),
    pytest.param("convergence", edited(lambda: wave_config("convergence", grids=[[16], [16, 16]],
                                                           thresholds={}), "grid", DELETE), 2,
                 "config error: grids[1]: a 2-dimensional grid in a ladder that starts with a "
                 "1-dimensional one", id="grid-ladder-of-mixed-dimension"),
    # one form for both cfl fields: the path, then the range and what it saw
    pytest.param("contraction", contraction_config(cfl=1.5), 2,
                 "config error: cfl: cfl must lie in (0, 1], got 1.5", id="cfl-above-one"),
    pytest.param("decay", edited(decay_config, "solver", "cfl", 0), 2,
                 "config error: solver.cfl: cfl must lie in (0, 1], got 0.0",
                 id="solver-cfl-zero"),
    # one text for a grid of another dimension than the rank, in every stepping kind
    *(pytest.param(kind, d, 3, "refused: a 1-dimensional polynomial on a 2-dimensional grid",
                   id=f"{kind}-grid-of-another-dimension") for kind, d in [
        ("contraction", contraction_config(grid=[16, 16])),
        ("decay", decay_config(grid=[16, 16])),
        ("spectrum", spectrum_config(grid=[16, 16])),
        ("counterexample", wave_config(grid=[16, 16])),
        ("convergence", edited(lambda: wave_config("convergence", grids=[[16, 16], [32, 32]],
                                                   thresholds={}), "grid", DELETE)),
    ]),
    pytest.param("decay", aliased_burgers_config(), 3,
                 "refused: data mode [-1000] needs 2|k_j| < N_j on the grid [256]",
                 id="data-mode-the-grid-cannot-hold"),
    pytest.param("spectrum", n4_cube_config(), 2,
                 "config error: cube: cube sampling supports n <= 3, got 4-dimensional data",
                 id="cube-over-n4-data"),
    pytest.param("check-flux", undeclared_witness_config(), 3,
                 "refused: product of basis elements sqrt2*sqrt3 is not declared; "
                 "exact multiplication undefined", id="witness-needs-an-undeclared-product"),
]


@pytest.mark.parametrize("kind, d, rc, msg", CONFIG_REFUSALS)
def test_cli_config_refusals_end_cleanly(tmp_path, capsys, kind, d, rc, msg):
    path = tmp_path / "cfg.json"
    path.write_text(d if isinstance(d, str) else json.dumps(d))
    assert cli.main([kind, "--config", str(path), "--out", str(tmp_path / "out")]) == rc
    assert capsys.readouterr().err == msg.format(path=path) + "\n"
    assert not (tmp_path / "out").exists()


def test_cli_derived_float_overflow_exit_three(tmp_path, capsys):
    # every rational is in float range, but the lifted flux 1e10 * 1e300 u^2
    # is not: its float table refuses when the solve first needs it
    d = decay_config()
    d["flux"]["pieces"] = [[["0", "0", "1e300"]]]
    d["initial"]["terms"][1]["frequency"] = [["1e10"]]
    cp = write_config(tmp_path, d)
    rc = cli.main(["decay", "--config", cp, "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "beyond float range" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_badly_scaled_lift_is_refused(tmp_path, capsys):
    # rank 4 over {1, sqrt2} with Hermite rows up to 74880/60: the exact lift
    # is right, but its floats miss the 1e-10 round trip, which the lift
    # checks before the rank meets the grid
    d = decay_config(
        basis=dict(SQRT2_BASIS, products=[[1, 1, ["2", "0"]]]),
        flux={"breakpoints": ["-2", "2"],
              "pieces": [[["0", "0", "1/2"], ["0", "0", "1/4"]]]},
        initial={"terms": [
            {"frequency": [["0", "0"], ["13/5", "0"]], "re": 1},
            {"frequency": [["0", "1"], ["1/4", "0"]], "re": 1},
            {"frequency": [["1", "0"], ["0", "0"]], "re": 0.5},
            {"frequency": [["1/3", "1/4"], ["0", "2"]], "re": 0.25},
        ]},
        grid=[16, 16, 16])
    cp = write_config(tmp_path, d)
    rc = cli.main(["decay", "--config", cp, "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("refused: lift round trip off by 5.224e-10")
    assert "largest |Lambda| entry is 1764.94" in err
    assert not (tmp_path / "out").exists()


def test_cli_frequency_outside_the_group_is_named_in_config_form(tmp_path, capsys):
    d = json.loads((CONFIGS / "burgers_decay.json").read_text())
    d["group_frequencies"] = [[["2"]]]
    cp = write_config(tmp_path, d)
    rc = cli.main(["decay", "--config", cp, "--out", str(tmp_path / "out")])
    assert rc == 3
    assert capsys.readouterr().err == (
        'refused: data frequency [["-1"]] lies outside the declared group\n')


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_check_flux_decides_over_the_data_group_inside_a_larger_declared_one(data):
    # the criterion asks about the group the data generate: a declared group
    # that holds it properly, by rank or by index, leaves the verdict as it is
    ints = st.integers(-3, 3)
    freqs = []
    for v in data.draw(st.lists(st.tuples(ints, ints), min_size=1, max_size=3)):
        if any(v) and v not in freqs and tuple(-x for x in v) not in freqs:
            freqs.append(v)
    assume(freqs)
    declared = data.draw(st.sampled_from([[[["1"], ["0"]], [["0"], ["1"]]],
                                          [[["1/2"], ["0"]], [["0"], ["1"]]]]))
    data_group, declared_group = (
        group_basis(Frequency.of(FrequencyBasis.rational(), rows) for rows in spec)
        for spec in ([[[a], [b]] for a, b in freqs], declared))
    # the data lie in the declared group, so a different one is a proper subgroup
    assume((data_group.rows, data_group.den) != (declared_group.rows, declared_group.den))
    coeff = st.sampled_from(["-1", "0", "1/2", "1", "3/2"])
    pieces = [[[data.draw(coeff) for _ in range(3)] for _ in range(2)]]
    initial = {"terms": [{"frequency": [[str(a)], [str(b)]], "re": 0.25} for a, b in freqs]}
    base = checkflux_config(flux={"breakpoints": ["-2", "2"], "pieces": pieces},
                            initial=initial, thresholds={})
    del base["group_frequencies"]
    own = run_experiment(parse_config(base))
    over = run_experiment(parse_config({**base, "group_frequencies": declared}))
    assert over.tables == own.tables
    assert over.scalars == own.scalars
    assert own.scalars["rank"] == data_group.rank


# group_frequencies is the group in every kind, and must generate the data:
# check-flux decides it by exact membership, the other kinds through the
# lift, over a group of rank 0 too, which must not lift the data as constant
SQRT2_DATA = {"terms": [{"frequency": [["0", "1"]], "re": 0.5}]}


@pytest.mark.parametrize("kind, stem, edits, outside", [
    ("contraction", "contraction_pair", {"group_frequencies": [[["2"]]]}, '[["-1"]]'),
    ("check-flux", "checkflux_sqrt2",
     {"group_frequencies": [[["1", "0"]]], "initial": SQRT2_DATA}, '[["0", "-1"]]'),
    ("decay", "burgers_decay", {"group_frequencies": [[["0"]]]}, '[["-1"]]'),
    ("contraction", "contraction_pair", {"group_frequencies": [[["0"]]]}, '[["-1"]]'),
    ("spectrum", "spectrum_probe", {"group_frequencies": [[["0", "0"]]]}, '[["-1", "0"]]'),
])
def test_cli_data_outside_the_declared_group_is_refused(tmp_path, capsys, kind, stem, edits,
                                                       outside):
    d = json.loads((CONFIGS / f"{stem}.json").read_text())
    d.update(edits)
    rc = cli.main([kind, "--config", write_config(tmp_path, d), "--out", str(tmp_path / "out")])
    assert rc == 3
    assert capsys.readouterr().err == (
        f"refused: data frequency {outside} lies outside the declared group\n")
    assert not (tmp_path / "out").exists()


def test_cli_constant_data_run_over_a_declared_zero_group(tmp_path, capsys):
    # constant data lie in the zero group, and run over it
    d = json.loads((CONFIGS / "burgers_decay.json").read_text())
    d.update(group_frequencies=[[["0"]]], initial={"terms": [{"frequency": [["0"]], "re": 0.3}]})
    rc = cli.main(["decay", "--config", write_config(tmp_path, d), "--out", str(tmp_path / "out")])
    cap = capsys.readouterr()
    assert rc == 0, cap.err
    assert cap.err == ""
    assert cap.out.startswith("PASS final_l1_to_mean_max\n")


# a group of rank 0 holds no xi != 0: nothing to decide, and no wave to carry
RANK_ZERO = "group of rank 0 (constant data or a zero group) holds no xi != 0"
# the one-dimensional data of ``checkflux_config`` in its two-dimensional group
ANOTHER_DIMENSION = "a 1-dimensional frequency among 2-dimensional ones"


@pytest.mark.parametrize("kind, stem, edits, drop", [
    pytest.param("check-flux", "checkflux_sqrt2", {"group_frequencies": [[["0", "0"]]]}, (),
                 id="check-flux-zero-group"),
    pytest.param("check-flux", "checkflux_sqrt2",
                 {"initial": {"terms": [{"frequency": [["0", "0"]], "re": 0.3}]}},
                 ("group_frequencies",), id="check-flux-constant-data"),
    pytest.param("counterexample", "transport_counterexample",
                 {"group_frequencies": [[["0"]]]}, (), id="counterexample-zero-group"),
    pytest.param("convergence", "transport_convergence",
                 {"group_frequencies": [[["0"]]]}, (), id="convergence-zero-group"),
])
def test_cli_rank_zero_group_is_refused(tmp_path, capsys, kind, stem, edits, drop):
    d = json.loads((CONFIGS / f"{stem}.json").read_text())
    d.update(edits)
    for key in drop:
        del d[key]
    rc = cli.main([kind, "--config", write_config(tmp_path, d), "--out", str(tmp_path / "out")])
    assert rc == 3
    assert capsys.readouterr().err == f"refused: {RANK_ZERO}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("terms, refusal", [
    # the zero frequency lies in every group, but not in one of another dimension
    pytest.param([{"frequency": [["0"]], "re": 0.3}], ANOTHER_DIMENSION,
                 id="terms0-frequency zero in a group of another dimension"),
    pytest.param([{"frequency": [["1"]], "re": 0.3}], ANOTHER_DIMENSION,
                 id="terms1-frequency one in a group of another dimension"),
    # no term left: no key to solve, and the data's group has rank 0
    ([{"frequency": [["0"]], "re": 0.0}], RANK_ZERO),
])
def test_check_flux_data_of_another_dimension_than_the_declared_group(terms, refusal):
    d = checkflux_config(flux={"breakpoints": ["-2", "2"], "pieces": [[["0", "0", "1/2"]]]},
                         initial={"terms": terms}, thresholds={})
    with pytest.raises(ValueError) as e:
        run_experiment(parse_config(d))
    assert str(e.value) == refusal


@pytest.mark.parametrize("kind, stem, edits", [
    ("contraction", "contraction_pair", {"group_frequencies": [[["1/2"]]]}),
    ("check-flux", "checkflux_sqrt2", {"initial": SQRT2_DATA}),
])
def test_cli_declared_group_that_holds_the_data_runs(tmp_path, capsys, kind, stem, edits):
    d = json.loads((CONFIGS / f"{stem}.json").read_text())
    d.update(edits)
    rc = cli.main([kind, "--config", write_config(tmp_path, d), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_conflicting_coefficients_are_named_in_config_form(tmp_path, capsys):
    d = json.loads((CONFIGS / "burgers_decay.json").read_text())
    d["initial"]["terms"].append({"frequency": [["1"]], "re": 0.5})
    cp = write_config(tmp_path, d)
    rc = cli.main(["decay", "--config", cp, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (
        'config error: initial: conflicting coefficients at [["1"]]\n')


def test_cli_internal_error_exit_five(tmp_path, capsys, monkeypatch):
    # a broken invariant of the program is not a refusal of the config
    def broken(cfg):
        raise AssertionError("input frequency must lie in its own group")

    monkeypatch.setattr(cli, "run_experiment", broken)
    cp = write_config(tmp_path, decay_config())
    rc = cli.main(["decay", "--config", cp, "--out", str(tmp_path / "out")])
    assert rc == 5
    err = capsys.readouterr().err
    assert err.startswith("internal error: input frequency") and "refused" not in err
    assert not (tmp_path / "out").exists()


# hostile stand-ins for one value: both ends of float range as numbers and
# as rational strings, the smallest subnormal, small and negative counts,
# and every JSON type
HOSTILE = (None, True, 0, -1, 2, 5e-324, 1e308, -1e308, "1e308", "-1e308", "1e400",
           "-1/3", "x", [], {}, [2], [[0]])


def tiny(stem, *edits):
    """A shipped config with every grid axis cut 32-fold, then edited.

    Each axis keeps at least 2 cells, and more than twice the largest probe
    entry, so that the probes stay below the alias bound and the spectrum
    runs go on to the solve.  Each edit is a key path and its new value, as
    ``edited`` takes them.
    """
    d = json.loads((CONFIGS / f"{stem}.json").read_text())
    least = max(2, 2 * max((abs(k) for p in d.get("probes", []) for k in p), default=0) + 1)
    for grid in [d["grid"]] if "grid" in d else d.get("grids", []):
        grid[:] = [max(least, n // 32) for n in grid]
    for *keys, value in edits:
        d = edited(lambda: d, *keys, copy.deepcopy(value))
    return d


@st.composite
def hostile_configs(draw):
    """A tiny shipped config with one or two of its values made hostile."""
    stem = draw(st.sampled_from(sorted(p.stem for p in CONFIGS.glob("*.json"))))
    d = tiny(stem)
    for _ in range(draw(st.integers(1, 2))):
        keys = draw(st.sampled_from(list(value_paths(d))))
        d = edited(lambda: d, *keys, copy.deepcopy(draw(st.sampled_from(HOSTILE))))
    return stem, d


@example(("transport_convergence", tiny("transport_convergence", ("grids", [[64], [64]]))))
@example(("contraction_pair", tiny("contraction_pair", ("initial_b", "terms", 0, "re", -1e308))))
@example(("spectrum_probe", tiny("spectrum_probe", ("basis", "values", 1, -1e308))))
# values in float range whose products are not: flux values and a wave
# phase 2 pi tau t; a probe of 1e308, whose phase once overflowed, is now
# refused by the alias bound (exit 2)
@example(("burgers_decay", tiny("burgers_decay", ("flux", "pieces", 0, 0, 2, "1e308"))))
@example(("spectrum_probe", tiny("spectrum_probe", ("probes", 0, 0, "1e308"))))
@example(("transport_convergence",
          tiny("transport_convergence", ("group_frequencies", 0, 0, 0, "1e308"))))
# a wave slope 4e308 beyond float range, from rationals within it
@example(("transport_counterexample",
          tiny("transport_counterexample", ("flux", "pieces", 0, 0, 1, "4"),
               ("wave", {"a": "0", "b": "1/2", "kbar": ["1e308"]}))))
# a zero kbar with a != -b: a constant wave, whose distance to the mean is 0
@example(("transport_counterexample", tiny("transport_counterexample",
                                           ("wave", {"a": "0", "b": "1/2", "kbar": [0]}))))
# constant data: a distance of 0 throughout, plotted as a flat line
@example(("burgers_decay", tiny("burgers_decay", ("initial", "terms", [
    {"frequency": [["0"]], "re": 0.3}]))))
# data up to 3e-13 past the span [-2, 1], within its 1e-12 slack: a run
# that once clamped them, with one warning on stderr per step
@example(("burgers_decay", tiny("burgers_decay", ("flux", "breakpoints", ["-2", "1"]),
                                ("initial", "terms", [{"frequency": [["0"]], "re": 1 - 2e-13},
                                                      {"frequency": [["1"]], "im": -2.5e-13}]),
                                ("solver", {"t_end": 0.05}))))
@settings(max_examples=200, derandomize=True, database=None,
          deadline=timedelta(seconds=10))
@given(hostile_configs())
def test_cli_ends_every_hostile_config_in_a_documented_exit(case):
    """0 pass, 2 config error, 3 refusal or 4 fail: no exit 5, exception or warning, plots too.

    A run that finishes (0 or 4) writes nothing on stderr but the plots it
    skips.  A logged warning counts too: from the bare CLI, logging's last
    resort writes it on stderr, but pytest captures it, so a handler here
    writes it where the CLI would.
    """
    stem, d = case
    kind = json.loads((CONFIGS / f"{stem}.json").read_text())["kind"]
    err = io.StringIO()
    logged = logging.StreamHandler(err)
    logged.setLevel(logging.WARNING)
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        cp = write_config(Path(tmp), d)
        logging.getLogger().addHandler(logged)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = cli.main([kind, "--config", cp, "--out", str(Path(tmp) / "out"), "--plot"])
        finally:
            logging.getLogger().removeHandler(logged)
    assert rc in (0, 2, 3, 4), err.getvalue()
    if rc in (0, 4):
        assert all(line.startswith("not plotted: ")
                   for line in err.getvalue().splitlines()), err.getvalue()


def test_cli_plot_writes_svg(tmp_path):
    cp = write_config(tmp_path, decay_config())
    rc = cli.main(["decay", "--config", cp, "--out", str(tmp_path / "out"),
                   "--plot"])
    assert rc == 0
    svg = tmp_path / "out" / "decay_series.svg"
    ET.fromstring(svg.read_text())


def test_cli_plot_of_distances_one_ulp_apart_returns(tmp_path):
    # the two distances differ in the last bit; the tick loop once spun on
    # them, so this runs in a process the timeout can end
    d = {"kind": "contraction", "basis": {"labels": ["1"], "values": [1.0]},
         "flux": {"breakpoints": ["-2", "2"], "pieces": [[["0", "1"]]]},
         "initial": {"terms": [{"frequency": [["0"]], "re": 0.3},
                               {"frequency": [["1"]], "im": -0.25}]},
         "initial_b": {"terms": [{"frequency": [["0"]], "re": 0.1},
                                 {"frequency": [["1"]], "im": -0.25}]},
         "grid": [32], "steps": 1, "thresholds": {"max_step_increase": 1e-12}}
    cp = write_config(tmp_path, d)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-m", "apcl.cli", "contraction", "--config", cp,
                           "--out", str(tmp_path / "out"), "--plot"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    ET.fromstring((tmp_path / "out" / "contraction_series.svg").read_text())


def test_cli_plot_of_constant_data_writes_a_flat_line_svg(tmp_path, capsys):
    # rank 0: the distance to the mean is 0 throughout, a flat line on a linear axis
    d = decay_config(initial={"terms": [{"frequency": [["0"]], "re": 0.3}]}, grid=[16],
                     solver={"t_end": 1.0}, thresholds={"final_l1_to_mean_max": 0.1})
    cp = write_config(tmp_path, d)
    out = tmp_path / "out"
    rc = cli.main(["decay", "--config", cp, "--out", str(out), "--plot"])
    assert rc == 0
    cap = capsys.readouterr()
    assert cap.err == ""
    assert "PASS final_l1_to_mean_max" in cap.out
    assert "decay_series.svg" in [p.name for p in out.iterdir()]


def test_cli_plot_of_a_long_decay_gets_a_log_axis(tmp_path):
    # on 64 cells to t = 40 the distance falls from 0.318 to 0.00505: two decades
    d = json.loads((CONFIGS / "burgers_decay.json").read_text())
    d["grid"] = [64]
    d["solver"] = {"t_end": 40.0}
    out = tmp_path / "out"
    rc = cli.main(["decay", "--config", write_config(tmp_path, d), "--out", str(out), "--plot"])
    assert rc == 0
    assert _ylabels(out / "burgers_decay_series.svg") == ["1e-2", "1e-1"]


@pytest.mark.parametrize("kind, d, msg", [
    ("spectrum", spectrum_config(initial={"terms": [{"frequency": [["0"]], "re": 0.3}]}),
     "spectrum probing needs non-constant data"),
    ("contraction", contraction_config(initial={"terms": [{"frequency": [["0"]], "re": 0.3}]},
                                       initial_b={"terms": [{"frequency": [["0"]], "re": 0.1}]}),
     "contraction needs non-constant data"),
    # identically zero n-D data: an empty joint spectrum, lifted in the data's dimension
    ("contraction", contraction_config(
        basis=dict(SQRT2_BASIS, products=[[1, 1, ["2", "0"]]]),
        flux={"breakpoints": ["-2", "2"], "pieces": [[["0", "0", "1/2"], ["0", "0", "1/2"]]]},
        initial={"terms": [{"frequency": [["1", "0"], ["0", "0"]], "re": 0}]},
        initial_b={"terms": [{"frequency": [["1", "0"], ["0", "0"]], "re": 0}]}, grid=[8, 8]),
     "contraction needs non-constant data"),
])
def test_cli_constant_data_refused_with_exit_three(tmp_path, capsys, kind, d, msg):
    rc = cli.main([kind, "--config", write_config(tmp_path, d), "--out", str(tmp_path / "out")])
    assert rc == 3
    assert capsys.readouterr().err == f"refused: {msg}\n"
    assert not (tmp_path / "out").exists()


def test_cli_spectrum_of_constant_data_over_a_declared_group_runs(tmp_path):
    # the {1, sqrt2} group_frequencies lift constant data to rank 2: probing reads zeros
    d = json.loads((CONFIGS / "spectrum_probe.json").read_text())
    d["initial"] = {"terms": [{"frequency": [["0", "0"]], "re": 0.3}]}
    out = tmp_path / "out"
    rc = cli.main(["spectrum", "--config", write_config(tmp_path, d), "--out", str(out)])
    assert rc == 0
    scalars = json.loads((out / "spectrum_probe_report.json").read_text())["scalars"]
    assert scalars["rank"] == 2
    assert scalars["final_l1_to_mean"] == 0.0


def test_rank_zero_decay_dumps_no_field():
    # constant data take the constant solution on no grid: there is no cell field
    d = decay_config(initial={"terms": [{"frequency": [["0"]], "re": 0.3}]}, dump_fields=True)
    rep = run_experiment(parse_config(d))
    assert rep.scalars["rank"] == 0
    assert rep.fields == {}
    assert rep.scalars["mean_drift"] == 0.0


def test_decay_and_spectrum_report_the_same_series_scalars():
    for d in (decay_config(), spectrum_config()):
        rep = run_experiment(parse_config(d))
        rows, _ = rep.tables["series"]
        assert rep.scalars["mean_drift"] == abs(rows[-1]["mass"] - rep.scalars["mean"])
        assert rep.scalars["final_l1_to_mean"] == rows[-1]["l1_to_mean"]
        assert rep.scalars["rank"] == 1


def test_cli_out_naming_a_file_exit_two_before_the_run(tmp_path, capsys, monkeypatch):
    def no_run(cfg):
        pytest.fail("the experiment ran")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    cp = write_config(tmp_path, decay_config())
    rc = cli.main(["decay", "--config", cp, "--out", cp])
    assert rc == 2
    assert capsys.readouterr().err == f"cannot write output: --out {cp} is not a directory\n"


def test_cli_unwritable_out_exit_two(tmp_path, capsys, monkeypatch):
    def no_run(cfg):
        pytest.fail("the experiment ran")

    # below a file, at any depth: refused before the run, and nothing is made
    monkeypatch.setattr(cli, "run_experiment", no_run)
    cp = write_config(tmp_path, decay_config())
    before = sorted(tmp_path.rglob("*"))
    for out in (Path(cp) / "out", Path(cp) / "a" / "b"):
        rc = cli.main(["decay", "--config", cp, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (f"cannot write output: --out {out} lies below "
                                           f"{cp}, which is not a directory\n")
    assert sorted(tmp_path.rglob("*")) == before


def test_cli_prefix_from_config(tmp_path):
    d = decay_config()
    d["output"] = {"prefix": "myrun"}
    cp = write_config(tmp_path, d)
    rc = cli.main(["decay", "--config", cp, "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "myrun_report.json").exists()


def test_config_dict_not_mutated():
    d = decay_config()
    snapshot = copy.deepcopy(d)
    run_experiment(parse_config(d))
    assert d == snapshot
