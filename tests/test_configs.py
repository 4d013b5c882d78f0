"""Every shipped config runs through the CLI with ``--plot`` and passes its own thresholds."""

import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from apcl import cli

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


def test_configs_found():
    assert len(CONFIGS) >= 7


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_passes(path, tmp_path, capsys):
    kind = json.loads(path.read_text())["kind"]
    rc = cli.main([kind, "--config", str(path), "--out", str(tmp_path), "--plot"])
    out = capsys.readouterr().out.splitlines()
    verdicts = [line for line in out if line.startswith(("PASS ", "FAIL "))]
    assert rc == 0, out
    assert verdicts and all(line.startswith("PASS ") for line in verdicts), out
    assert any(p.suffix == ".csv" for p in tmp_path.iterdir())
    for svg in tmp_path.glob("*.svg"):
        root = ET.fromstring(svg.read_text())
        ylabels = [t for t in root.iter("{http://www.w3.org/2000/svg}text")
                   if t.get("text-anchor") == "end"]
        assert len(ylabels) >= 2, svg.name


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
