"""The README's library quickstart runs, and every `# value` comment on an
expression line is what that expression evaluates to."""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quickstart_values():
    source = quickstart_block()
    comments = {tok.start[0]: tok.string[1:].strip()
                for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    namespace = {}
    checked = 0
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        assert stmt.end_lineno in comments, f"line {stmt.lineno} has no value comment"
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        expected = ast.literal_eval(comments[stmt.end_lineno])
        assert value == expected, ast.unparse(stmt.value)
        checked += 1
    assert checked == 6
