"""Mutation runs: how many small faults in one module the tests catch.

Run from anywhere, with the module's path relative to the repository:

    python tests/mutate.py src/legfronts/fronts.py
    python tests/mutate.py src/legfronts/fronts.py --sample 8

Every site of the module's syntax tree gives one mutant:

* a comparison ``<``/``<=``, ``>``/``>=`` or ``==``/``!=`` swapped for
  its partner;
* ``+``/``-`` swapped, in an expression or an augmented assignment;
* ``and``/``or`` swapped;
* an int constant raised by one;
* a ``not`` dropped.

Each mutant is the changed tree as ``ast.unparse`` renders it, written
into a temporary copy of the repository, never over the module itself.
There the module's test files from ``TESTS`` run with ``pytest -x -q``
and a fixed Hypothesis seed.  A mutant is killed when the run fails or
times out.  The unchanged module, rendered the same way, must first pass
the same run, or no mutant is tried.  ``--sample N`` tries N sites drawn
with the fixed seed ``SEED``, so a sample stays the same until the module
changes; a module that needs other tests gets an edited ``TESTS`` entry.
The script prints the killed and survived counts and ``file:line:col
operator`` for each survivor, with the function that holds it.  The
line and 1-based column are those of the operator itself (of the
constant, of the ``not``), so two sites on one line, such as two
comparisons of one chain, are told apart.

Standard library only; pytest does not collect this file.
"""

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the test files that exercise each module, so that a run stays within minutes
TESTS = {
    "__init__.py": ["test_imports.py", "test_source.py", "test_analysis.py"],
    "analysis.py": ["test_analysis.py", "test_acceptance.py", "test_cli.py", "test_paper.py"],
    "cli.py": ["test_cli.py", "test_golden_cli.py", "test_demos.py"],
    "corpus.py": ["test_fronts.py", "test_cli.py"],
    "diagram.py": ["test_skein.py"],
    "fronts.py": ["test_fronts.py", "test_rulings.py", "test_analysis.py", "test_skein.py"],
    "laurent.py": ["test_laurent.py", "test_rulings.py", "test_skein.py"],
    "rulings.py": ["test_rulings.py", "test_analysis.py", "test_paper.py"],
    "skein.py": ["test_skein.py", "test_analysis.py"],
}

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.And: ast.Or, ast.Or: ast.And,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Add: "+", ast.Sub: "-", ast.And: "and", ast.Or: "or",
}
SEED = 1  # draws the sites of --sample
IGNORED = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}
MEMORY_LIMIT = 2 << 30  # bytes of address space per test run, so a runaway mutant fails alone


class Mutator(ast.NodeTransformer):
    """Numbers the sites of ``source`` in visiting order and changes the
    one numbered ``target``; with no target it only lists them.  ``sites``
    holds (line, column, operator, function) per site."""

    def __init__(self, source: str, target: int | None = None):
        self.lines = source.encode().splitlines()  # col_offset counts UTF-8 bytes
        self.target = target
        self.sites = []
        self.scope = []

    def _site(self, at: tuple[int, int], operator: str) -> bool:
        self.sites.append((*at, operator, ".".join(self.scope) or "<module>"))
        return len(self.sites) - 1 == self.target

    def _start(self, node) -> tuple[int, int]:
        return node.lineno, len(self.lines[node.lineno - 1][:node.col_offset].decode()) + 1

    def _between(self, left, right, symbol: str) -> tuple[int, int]:
        """(line, column) of the operator ``symbol`` after ``left`` and before ``right``."""
        line, start = left.end_lineno, left.end_col_offset
        while True:
            text = self.lines[line - 1]
            found = text.find(symbol.encode(), start, right.col_offset if line == right.lineno else len(text))
            if found >= 0:
                return line, len(text[:found].decode()) + 1
            line, start = line + 1, 0

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()
        return node

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def _swap(self, op, left, right):
        if type(op) in SWAPS:
            at = self._between(left, right, SYMBOLS[type(op)])
            if self._site(at, f"{SYMBOLS[type(op)]} -> {SYMBOLS[SWAPS[type(op)]]}"):
                return SWAPS[type(op)]()
        return op

    def visit_Compare(self, node):
        self.generic_visit(node)
        operands = [node.left, *node.comparators]
        node.ops = [self._swap(op, *operands[i:i + 2]) for i, op in enumerate(node.ops)]
        return node

    def visit_BinOp(self, node):
        self.generic_visit(node)
        node.op = self._swap(node.op, node.left, node.right)
        return node

    def visit_AugAssign(self, node):
        self.generic_visit(node)
        node.op = self._swap(node.op, node.target, node.value)
        return node

    def visit_BoolOp(self, node):
        self.generic_visit(node)
        node.op = self._swap(node.op, *node.values[:2])
        return node

    def visit_Constant(self, node):
        if type(node.value) is int and self._site(self._start(node), f"{node.value} -> {node.value + 1}"):
            return ast.copy_location(ast.Constant(node.value + 1), node)
        return node

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, ast.Not) and self._site(self._start(node), "drop not"):
            return node.operand
        return node


def mutant(source: str, target: int | None) -> str:
    return ast.unparse(ast.fix_missing_locations(Mutator(source, target).visit(ast.parse(source))))


def _limit_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("module", help="path of the module, e.g. src/legfronts/fronts.py")
    parser.add_argument("--sample", type=int, help="try only this many sites, drawn with SEED")
    args = parser.parse_args(argv)

    path = (ROOT / args.module).resolve()
    rel = path.relative_to(ROOT)
    tests = [f"tests/{name}" for name in TESTS[path.name]]
    source = path.read_text()
    counter = Mutator(source)
    counter.visit(ast.parse(source))
    sites = counter.sites
    chosen = range(len(sites))
    if args.sample is not None:
        chosen = sorted(random.Random(SEED).sample(chosen, min(args.sample, len(sites))))

    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests]
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=lambda d, names: [
            n for n in names if n in IGNORED or Path(d, n) == ROOT / "bench" / "out"])
        # no bytecode: two mutants of one size written in one second would share a stale .pyc
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        limit = _limit_memory if os.name == "posix" else None

        def passes(text: str, timeout: float | None = None) -> bool:
            (copy / rel).write_text(text)
            shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
            try:
                return subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.DEVNULL, timeout=timeout,
                                      preexec_fn=limit).returncode == 0
            except subprocess.TimeoutExpired:
                return False

        start = time.perf_counter()
        if not passes(mutant(source, None)):
            print(f"{rel}: the tests fail on the unchanged module as ast.unparse renders it; no mutant tried")
            return 1
        timeout = max(30.0, 5 * (time.perf_counter() - start))
        survivors = [sites[i] for i in chosen if passes(mutant(source, i), timeout)]
    elapsed = time.perf_counter() - start

    print(f"{rel}: {len(chosen)} of {len(sites)} sites tried, {len(chosen) - len(survivors)} killed, "
          f"{len(survivors)} survived, in {elapsed:.0f} s; tests: {' '.join(tests)}")
    for line, col, operator, function in survivors:
        print(f"  {rel}:{line}:{col} {operator}  ({function})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
