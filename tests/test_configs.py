"""Every shipped config runs through the CLI and passes its own thresholds;
every script in ``scripts/`` runs to exit 0."""

import json
import runpy
import sys
from pathlib import Path

import pytest

from apcl import cli

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_configs_found():
    assert len(CONFIGS) >= 7


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_passes(path, tmp_path, capsys):
    kind = json.loads(path.read_text())["kind"]
    rc = cli.main([kind, "--config", str(path), "--out", str(tmp_path)])
    out = capsys.readouterr().out.splitlines()
    verdicts = [line for line in out if line.startswith(("PASS ", "FAIL "))]
    assert rc == 0, out
    assert verdicts and all(line.startswith("PASS ") for line in verdicts), out


# the exact layer's CSV outputs, which use integer arithmetic and IEEE
# division only and so are the same bytes on every platform
EXACT_CSV = {
    "checkflux_sqrt2": b"nondegenerate,kbar,piece,interval_lo,interval_hi,tau,c\n"
                       b"true,,,,,,\n",
    "degenerate_diagonal": b"nondegenerate,kbar,piece,interval_lo,interval_hi,tau,c\n"
                           b'false,"1,-1",0,-2,2,0.0,0.0\n',
}


@pytest.mark.parametrize("stem", sorted(EXACT_CSV))
def test_exact_layer_csv_bytes(stem, tmp_path):
    rc = cli.main(["check-flux", "--config", str(ROOT / "configs" / f"{stem}.json"),
                   "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / f"{stem}_verdict.csv").read_bytes() == EXACT_CSV[stem]


def test_scripts_found():
    assert len(SCRIPTS) >= 4


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_script_exits_zero(path, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(path), "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as e:
        runpy.run_path(str(path), run_name="__main__")
    assert e.value.code == 0, capsys.readouterr()
    assert any(p.suffix == ".csv" for p in tmp_path.iterdir())
