"""The README's library quick start runs, and each value written in its comments is
what the statement before it gives."""

import ast
from pathlib import Path

import relconvex

README = Path(__file__).parents[1] / "README.md"


def quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def claims(block: str):
    """``(statement, comment)`` per top-level statement: the comment on its last line,
    else the comment-only line below it, else None."""
    lines = block.splitlines()
    for node in ast.parse(block).body:
        last = lines[node.end_lineno - 1]
        below = lines[node.end_lineno].strip() if node.end_lineno < len(lines) else ""
        if "#" in last:
            comment = last.split("#", 1)[1]
        elif below.startswith("#"):
            comment = below[1:]
        else:
            comment = None
        yield node, None if comment is None else comment.strip()


def check(value, claim: str, namespace: dict) -> None:
    """A claim is a repr ending in ``...)`` (a prefix), conditions joined by ", ",
    or a value, each before an optional ": reason"."""
    if claim.endswith("...)"):
        assert repr(value).startswith(claim[:-4]), (repr(value), claim)
        return
    claim = claim.split(": ", 1)[0]
    if "==" in claim:
        for condition in claim.split(", "):
            assert eval(condition, namespace), condition
    else:
        assert value == eval(claim, namespace), (value, claim)


def test_the_quick_start_shows_what_it_computes():
    block = quick_start()
    namespace = {}
    checked = []
    for node, claim in claims(block):
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            value = None
        if claim is not None:
            check(value, claim, {**vars(relconvex), **namespace})
            checked.append(claim)
    assert len(checked) == 6, checked
    assert checked[-1].startswith("BoundReport(value=2.6, upper=5.0, holds=True, slack_upper=2.4, lower=0.0,")
