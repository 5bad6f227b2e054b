"""scripts/src_lines.py: its four line categories partition every module."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_script():
    spec = importlib.util.spec_from_file_location("src_lines", ROOT / "scripts" / "src_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_sum_to_each_module_line_count():
    src_lines = load_script()
    modules = sorted((ROOT / "src" / "ptdiff").glob("*.py"))
    assert modules
    for path in modules:
        counts = src_lines.count(path)
        assert sum(counts.values()) == len(path.read_text().splitlines()), path.name


def test_blank_docstring_lines_are_docstring():
    sample = ('def f():\n    """Doc.\n\n    More.\n    """\n    # note\n\n'
              '    text = """a\n\nb"""  # trailing\n    return text\n')
    assert load_script().classify_lines(sample) == [
        "code", "docstring", "docstring", "docstring", "docstring", "comment", "blank",
        "code", "code", "code", "code"]
