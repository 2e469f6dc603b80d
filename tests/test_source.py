"""Source guards for the package's modules.

Under CPython 3.11 the peak memory of ``compile()`` jumps by about
230 KiB once a module passes about 4,096 tokens, and the jump shows in
the peak RSS of every process that imports the package.

The package is pure standard library: every module imports only the
standard library and the package itself.  No module imports
``dataclasses``: the records are named tuples, since decorating them as
frozen dataclasses cost about 14 ms of every import of the package.  No
module imports ``__future__``: under ``annotations`` each named-tuple
field's string annotation is compiled again as a ``ForwardRef`` at class
creation.

The benchmark under ``bench/`` drives the package through its public
names, so every package attribute it reads must resolve here, where a
removed or renamed name fails the tier-1 suite and not only a benchmark
run.
"""

import ast
import contextlib
import importlib.util
import inspect
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
    assert "dataclasses" not in tops
    assert "__future__" not in tops


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_imports_or_binds_a_global(path):
    # a layer that not every entry point needs is read as an attribute of
    # the package, which imports it on first touch, so no check depends
    # on a binder having run first
    with tokenize.open(path) as fh:
        tree = ast.parse(fh.read(), str(path))
    sites = [
        f"{path.name}:{node.lineno} {type(node).__name__} in {func.name}"
        for func in ast.walk(tree) if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom, ast.Global))
    ]
    assert sites == []


BENCH = Path(__file__).resolve().parent.parent / "bench"


def _package_chain(node) -> tuple[str, ...] | None:
    """The attribute names read off the package in ``lf.a.b`` or
    ``self.lf.a.b``, the names the benchmark gives the imported package;
    None for any other expression."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    names = tuple(reversed(names))
    if isinstance(node, ast.Name) and node.id == "lf":
        return names
    if isinstance(node, ast.Name) and node.id == "self" and names[:1] == ("lf",):
        return names[1:]
    return None


def _resolve(chain) -> str | None:
    """The first dotted name of ``chain`` that the package lacks, or None.
    A name missing on a module is tried as a submodule, which the
    benchmark imports itself (``legfronts.cli``)."""
    owner = legfronts
    for i, name in enumerate(chain):
        if not hasattr(owner, name) and inspect.ismodule(owner):
            with contextlib.suppress(ModuleNotFoundError):
                importlib.import_module(f"{owner.__name__}.{name}")
        if not hasattr(owner, name):
            return ".".join(("legfronts",) + chain[:i + 1])
        owner = getattr(owner, name)
    return None


def test_every_package_name_the_benchmark_reads_resolves():
    chains = set()
    for path in sorted(BENCH.glob("*.py")):
        with tokenize.open(path) as fh:
            tree = ast.parse(fh.read(), str(path))
        chains.update(c for c in map(_package_chain, ast.walk(tree)) if c)
    assert [name for name in map(_resolve, sorted(chains)) if name] == []
    # the walk sees the names the workloads call, such as these
    assert {("components",), ("classical_invariants",), ("census",), ("cli", "main")} <= chains


def test_laurent_types_define_every_method_the_tracer_wraps():
    # the tracer wraps each method through the class __dict__, so a
    # method that is inherited or renamed fails the traced benchmark run
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert "__init__" in tracer.LAURENT_METHODS
    for cls in (legfronts.ZPoly, legfronts.VZPoly):
        assert [m for m in tracer.LAURENT_METHODS if m not in cls.__dict__] == [], cls.__name__
    # the operations that never read inside a key are one function, bound in both
    shared = ("__neg__", "__add__", "__radd__", "__sub__", "__rsub__", "__pow__")
    assert [m for m in shared if legfronts.ZPoly.__dict__[m] is not legfronts.VZPoly.__dict__[m]] == []
