"""Checked-in stdout of the seeded CLI commands CI's ``determinism`` job runs.

``tests/goldens/cli/<name>.txt`` holds the whole stdout of one command (the
CI matrix lists all eight).  The four cheap ones are replayed here, in
process; CI diffs all eight, each from two fresh interpreters with
different string hashing.  A change that moves a simulated number
therefore shows up as a reviewed diff of a golden file.  To re-pin one on
purpose::

    PYTHONPATH=src python -m repro.cli chaos --quick --seed 7 \
        > tests/goldens/cli/chaos.txt
"""

from pathlib import Path

import pytest

from repro.cli import main

GOLDENS = Path(__file__).parent / "goldens" / "cli"

#: golden name -> CLI arguments (the tier-1 subset of the CI matrix).
COMMANDS = {
    "chaos": "chaos --quick --seed 7",
    "fig6": "fig6 --quick --seed 7",
    "fig7": "fig7 --quick --seed 7",
    "scale": "scale --quick --seed 7 --topology 5x5x4",
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(name, capsys):
    assert main(COMMANDS[name].split()) == 0
    golden = (GOLDENS / f"{name}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden
