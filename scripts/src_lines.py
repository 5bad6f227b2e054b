"""Line counts of the ptdiff package: code, docstring, comment and blank.

Prints one row per module of src/ptdiff and a total row.  The four
categories partition each file: a docstring's lines (its blank lines
included) are docstring; of the other lines, one holding a token other
than a comment is code, one holding only a comment is comment, and the
rest are blank.

    python scripts/src_lines.py [package directory]
"""

import ast
import sys
import tokenize
from pathlib import Path

CATEGORIES = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.COMMENT}


def classify_lines(source: str) -> list:
    """The category of each line of source, in order."""
    lines = source.splitlines()
    kinds = ["blank"] * len(lines)
    for tok in tokenize.generate_tokens(iter(source.splitlines(keepends=True)).__next__):
        first, last = tok.start[0], tok.end[0]
        if tok.type == tokenize.COMMENT:
            if kinds[first - 1] == "blank":
                kinds[first - 1] = "comment"
        elif tok.type not in _LAYOUT:
            for row in range(first, last + 1):
                kinds[row - 1] = "code"
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            for row in range(doc.lineno, doc.end_lineno + 1):
                kinds[row - 1] = "docstring"
    return kinds


def count(path: Path) -> dict:
    kinds = classify_lines(path.read_text())
    return {c: kinds.count(c) for c in CATEGORIES}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "ptdiff"
    total = dict.fromkeys(CATEGORIES, 0)
    print(f"{'module':<18}{'lines':>7}" + "".join(f"{c:>11}" for c in CATEGORIES))
    for path in sorted(package.glob("*.py")):
        row = count(path)
        for c in CATEGORIES:
            total[c] += row[c]
        print(f"{path.name:<18}{sum(row.values()):>7}" + "".join(f"{row[c]:>11}" for c in CATEGORIES))
    print(f"{'total':<18}{sum(total.values()):>7}" + "".join(f"{total[c]:>11}" for c in CATEGORIES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
