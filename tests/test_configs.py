"""Every shipped config runs through the CLI with ``--plot`` and passes its own thresholds."""

import json
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from apcl import cli

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


def test_configs_found():
    # README's command list names every shipped config under its own kind, and no other
    listed = set(re.findall(r"^apcl (\S+) +--config configs/(\S+)\.json --plot$",
                            (ROOT / "README.md").read_text(), re.MULTILINE))
    shipped = {(json.loads(p.read_text())["kind"], p.stem) for p in CONFIGS}
    assert CONFIGS and listed == shipped


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
    # the lift needs sqrt2*sqrt3, which the basis does not declare; the
    # witness xi = (2, -2) does not
    "checkflux_undeclared_witness": b"nondegenerate,kbar,piece,interval_lo,interval_hi,tau,c\n"
                                    b'false,"2,-1",0,-1,1,3.4641016151377544,0.0\n',
    "degenerate_diagonal": b"nondegenerate,kbar,piece,interval_lo,interval_hi,tau,c\n"
                           b'false,"1,-1",0,-2,2,0.0,0.0\n',
    "diagonal_data_group": b"nondegenerate,kbar,piece,interval_lo,interval_hi,tau,c\n"
                           b"true,,,,,,\n",
}


@pytest.mark.parametrize("stem", sorted(EXACT_CSV))
def test_exact_layer_csv_bytes(stem, tmp_path):
    rc = cli.main(["check-flux", "--config", str(ROOT / "configs" / f"{stem}.json"),
                   "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / f"{stem}_verdict.csv").read_bytes() == EXACT_CSV[stem]


def test_data_group_config_decides_over_the_data_group(tmp_path):
    # (u^2/2, u^2/2) is degenerate along (1, -1) in the declared Z^2, which
    # the data 0.5 cos 2 pi x_1 do not reach: their group is {(k, 0)}
    path = ROOT / "configs" / "diagonal_data_group.json"
    assert cli.main(["check-flux", "--config", str(path), "--out", str(tmp_path / "own")]) == 0
    report = json.loads((tmp_path / "own" / "diagonal_data_group_report.json").read_text())
    assert {k: report["scalars"][k] for k in ("group_of", "rank", "group_frequencies")} == \
        {"group_of": "initial", "rank": 1, "group_frequencies": [[["1"], ["0"]]]}
    # without the data, the verdict is over the declared group, for every data set in it
    d = json.loads(path.read_text())
    del d["initial"]
    cp = tmp_path / "declared.json"
    cp.write_text(json.dumps(d))
    assert cli.main(["check-flux", "--config", str(cp), "--out", str(tmp_path / "declared")]) == 4
    report = json.loads((tmp_path / "declared" / "diagonal_data_group_report.json").read_text())
    assert (report["scalars"]["group_of"], report["scalars"]["rank"]) == ("group_frequencies", 2)
