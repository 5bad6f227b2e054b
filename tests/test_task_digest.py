"""scripts/task_digest.py: one stable digest per benchmark task result."""

import importlib.util
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_script(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script adds benchmark/
    path = ROOT / "scripts" / "task_digest.py"
    spec = importlib.util.spec_from_file_location("task_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_canonical_form(monkeypatch):
    script = load_script(monkeypatch)
    got = script.canonical({(1, 0): 0.5, "b": [1, 2.0], "a": None})
    assert got == [["(1, 0)", "0x1.0000000000000p-1"], ["a", None],
                   ["b", [1, "0x1.0000000000000p+1"]]]
    assert script.digest({"x": 0.1}) != script.digest({"x": math.nextafter(0.1, 1.0)})
    assert script.parse_seeds("1-3,7") == [1, 2, 3, 7]


def test_whitney_digests_are_stable(monkeypatch):
    script = load_script(monkeypatch)
    first = script.task_digests("whitney-1d", 1)
    assert first == script.task_digests("whitney-1d", 1)
    assert [label for label, _ in first] == ["whitney extend+eval+hoelder"]
    assert all(len(hexdigest) == 64 for _, hexdigest in first)
