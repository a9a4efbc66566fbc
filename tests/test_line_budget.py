"""The production modules' code-line budget (ROADMAP item 4)."""

from __future__ import annotations

import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nestseg"
BUDGET = 1000
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """Lines holding a token that is not a comment, a blank or a
    docstring (a string that is a statement by itself)."""
    with open(path, "rb") as f:
        toks = list(tokenize.tokenize(f.readline))
    lines = set()
    for prev, tok, nxt in zip(toks, toks[1:], toks[2:]):
        docstring = (tok.type == tokenize.STRING and nxt.type == tokenize.NEWLINE
                     and prev.type in _SKIP)
        if tok.type not in _SKIP and not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def test_code_lines_skip_comments_blanks_and_docstrings(tmp_path):
    path = tmp_path / "m.py"
    path.write_text('"""Module\ndocstring."""\n\n# comment\n'
                    'def f(x):\n    """Doc."""\n    return (x +\n            1)  # tail\n'
                    'y = """not a\ndocstring"""\n')
    assert code_lines(path) == 5


def test_production_code_lines_within_budget():
    # every module of the package except oracle.py, the test-scale
    # reference solvers
    counts = {p.name: code_lines(p) for p in sorted(SRC.glob("*.py"))
              if p.name != "oracle.py"}
    total = sum(counts.values())
    print(f"production code lines: {total} {counts}")
    assert total <= BUDGET, f"production code lines: {total}, over the budget of 1,000"
