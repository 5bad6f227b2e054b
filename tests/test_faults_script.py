"""scripts/faults.py: its output columns, not its numbers."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_script():
    spec = importlib.util.spec_from_file_location("faults", ROOT / "scripts" / "faults.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_columns(capsys):
    faults = load_script()
    assert len(faults.COMMANDS) == 4
    command = "jet --item exp --point 0.1 --k 1"
    faults.main([command])
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["first", "second", "exits", "command"]
    first, second, exits, *rest = row.split()
    assert int(first) >= 0 and int(second) >= 0
    assert exits == "0,0" and " ".join(rest) == command
