"""Statements of ``src/legfronts`` that no test executes.

Run from anywhere:

    python tests/uncovered.py                        # the tier-1 suite
    python tests/uncovered.py tests/test_skein.py    # other pytest arguments

The script runs pytest in this process under ``sys.settrace``, records
each line executed in a frame whose code lives in ``src/legfronts``, and
prints every statement that never ran as ``file:line text``, then a
summary line.  A statement is an ``ast.stmt`` other than a def, a class,
an import or a docstring.  It ran when any line of its own ran: all its
lines for a simple statement, the lines before its first nested
statement for a compound one.  A line that runs only in a subprocess,
such as the command line's ``__main__`` guard, is not seen.

Standard library and pytest only, so no coverage package is needed.
Tracing makes the suite three to four times slower, so Hypothesis runs
with no deadline and a fixed seed.  The exit status is pytest's.
Pytest does not collect this file.
"""

import ast
import os
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "legfronts"
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def statements(tree: ast.Module):
    """(statement, its own line range) for each statement of ``tree`` that counts."""
    docstrings = {
        id(node.body[0]) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant) and isinstance(node.body[0].value.value, str)
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED) or id(node) in docstrings:
            continue
        nested = [child.lineno for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt)]
        yield node, range(node.lineno, min(nested) if nested else node.end_lineno + 1)


class _NoDeadline:
    """A pytest plugin: Hypothesis under the tracer, with no deadline."""

    @staticmethod
    def pytest_configure(config):
        # imported here, after pytest has set up its assertion rewriting
        import hypothesis

        hypothesis.settings.register_profile("uncovered", deadline=None)
        hypothesis.settings.load_profile("uncovered")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    args = ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *(args or ["tests"])]

    ran: dict[str, set[int]] = {}
    target: dict[str, set[int] | None] = {}

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        lines = target.get(name, False)
        if lines is False:
            inside = Path(os.path.realpath(name)).parent == PACKAGE
            lines = target[name] = ran.setdefault(os.path.realpath(name), set()) if inside else None
        if lines is None:
            return None
        add = lines.add

        def on_line(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return on_line

        return on_line

    os.chdir(ROOT)  # the pytest settings in pyproject.toml put src on the path
    start = time.perf_counter()
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(args, plugins=[_NoDeadline()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    elapsed = time.perf_counter() - start

    missed = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        executed = ran.get(os.path.realpath(path), set())
        for node, own in sorted(statements(ast.parse(source, str(path))), key=lambda s: s[0].lineno):
            total += 1
            if executed.isdisjoint(own):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{node.lineno} {lines[node.lineno - 1].strip()}")
    print(f"{missed} of {total} statements in src/legfronts never executed; "
          f"pytest exit status {int(status)}, {elapsed:.0f} s traced")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
