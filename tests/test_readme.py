"""The README's Python examples run, and give the results their comments state.

Each ```python block runs statement by statement in a fresh namespace, in a
temporary working directory. Its comments are its documented results:
- a line that is only a comment is a line the block prints;
- a comment after an expression is that expression's value, as a literal;
- a comment after an assignment is the assigned array's shape and dtype.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    flags=re.M | re.S)


def _comments(block):
    """{line number: comment text} and the numbers of the lines holding only a comment."""
    comments, alone = {}, set()
    for tok in tokenize.generate_tokens(io.StringIO(block).readline):
        if tok.type == tokenize.COMMENT:
            comments[tok.start[0]] = tok.string[1:].strip()
            if not tok.line[:tok.start[1]].strip():
                alone.add(tok.start[0])
    return comments, alone


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_gives_its_documented_results(block, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    comments, alone = _comments(block)
    namespace = {}
    checked = set(alone)
    for stmt in ast.parse(block).body:
        comment = comments.get(stmt.end_lineno) if stmt.end_lineno not in alone else None
        if comment is not None and isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert value == ast.literal_eval(comment), ast.unparse(stmt)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            if comment is not None:
                assert isinstance(stmt, ast.Assign) and len(stmt.targets) == 1, ast.unparse(stmt)
                value = eval(ast.unparse(stmt.targets[0]), namespace)
                assert f"{value.shape} {value.dtype}" == comment, ast.unparse(stmt)
        if comment is not None:
            checked.add(stmt.end_lineno)
    assert checked == set(comments), "a comment that is not a documented result"
    assert capsys.readouterr().out == "".join(f"{comments[n]}\n" for n in sorted(alone))
