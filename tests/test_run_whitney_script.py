"""scripts/run_whitney.py: its exit code and the fields of its last line."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_script():
    path = ROOT / "scripts" / "run_whitney.py"
    spec = importlib.util.spec_from_file_location("run_whitney", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_last_line(capsys):
    assert load_script().main(["--points", "20", "--pairs", "200"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    fields = re.fullmatch(
        r"process CPU s: extend (\S+), eval (\S+), Hoelder (\S+), partition (\S+)", last)
    assert fields, last
    assert all(float(v) >= 0.0 for v in fields.groups())
