"""Every shipped config runs through the CLI and passes its own thresholds."""

import json
from pathlib import Path

import pytest

from apcl import cli

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


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
