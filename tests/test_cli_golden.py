"""CLI stdout must stay byte-identical on the reference graphs.

``golden_cli.json`` holds, for every file in ``demos/graphs``, the exit code
and stdout of ``python -m chipfiring`` for ``energy`` (the maximum stable,
the zero and a mixed-sign configuration), ``chain`` (from zero and from a
mid-box stable configuration), ``classes``, ``conjecture`` and
``cross-check``, recorded before the Fraction inverse was replaced by the
integer (det, adj) kernel.
"""

import json
from pathlib import Path

import pytest

from chipfiring.cli import main

ROOT = Path(__file__).resolve().parent.parent
CASES = json.loads((Path(__file__).resolve().parent / "golden_cli.json").read_text())["cases"]


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_stdout_matches_golden(case, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(case["argv"]) == case["exit"]
    assert capsys.readouterr().out == case["stdout"]
