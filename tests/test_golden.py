"""Byte-for-byte CLI documents on the reference scenario.

The files under ``tests/golden/`` are the stdout of each subcommand on
``scenarios/default.scn``.  They pin the current behaviour for refactors;
a refactor that changes a byte must explain the change, not regenerate them.
"""

from pathlib import Path

import pytest

from admrelay import cli

ROOT = Path(__file__).resolve().parents[1]
SCENARIO = ROOT / "scenarios" / "default.scn"
GOLDEN = Path(__file__).resolve().parent / "golden"

DOCUMENTS = {
    "validate": ["validate"],
    "case2": ["case", "--case", "2"],
    "sweep": ["sweep"],
    "dcb": ["dcb"],
    "trajectory": ["trajectory"],
}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_default_scenario_documents_match_goldens(name, tmp_path):
    command, *extra = DOCUMENTS[name]
    out = tmp_path / f"{name}.txt"
    assert cli.main([command, str(SCENARIO), *extra, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.txt").read_bytes()
