"""The README's library quick start runs, and each ``# result`` comment
after an expression is the ``str`` of that expression's value."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text()
    match = re.search(r"## Library quick start\n+```python\n(.*?)```", text, re.S)
    assert match, "no python block under 'Library quick start'"
    return match.group(1)


def test_readme_quick_start_results():
    source = _quick_start()
    lines = source.splitlines()
    namespace = {}
    checked = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        expected = lines[node.lineno - 1].split("#", 1)[1].strip()
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        checked.append((ast.unparse(node.value), str(value), expected))
    assert [(expr, got) for expr, got, _ in checked] == [(expr, want) for expr, _, want in checked]
    assert [want for *_, want in checked] == [
        "1", "[(1,), (1, 2, 3), (3,)]", "z^2 + 2", "-v^4 + v^2 z^2 + 2 v^2", "True", "True",
    ]
