"""Source guards for the package's modules.

Under CPython 3.11 the peak memory of ``compile()`` jumps by about
230 KiB once a module passes about 4,096 tokens, and the jump shows in
the peak RSS of every process that imports the package.

The package is pure standard library: every module imports only the
standard library and the package itself.
"""

import ast
import sys
import tokenize
from pathlib import Path

import pytest

import legfronts

MAX_TOKENS = 4096
MODULES = sorted(Path(legfronts.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_stays_below_the_compile_cliff(path):
    with tokenize.open(path) as fh:
        tokens = tokenize.generate_tokens(fh.readline)
        count = sum(t.type not in (tokenize.COMMENT, tokenize.NL) for t in tokens)
    assert count < MAX_TOKENS


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    with tokenize.open(path) as fh:
        tree = ast.parse(fh.read(), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # level > 0: within the package
            imported.add(node.module)
    tops = {name.partition(".")[0] for name in imported}
    assert tops <= sys.stdlib_module_names | {"legfronts"}, sorted(tops - sys.stdlib_module_names)
