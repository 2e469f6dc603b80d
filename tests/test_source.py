"""Source-size guard for the package's modules.

Under CPython 3.11 the peak memory of ``compile()`` jumps by about
230 KiB once a module passes about 4,096 tokens, and the jump shows in
the peak RSS of every process that imports the package.
"""

import tokenize
from pathlib import Path

import pytest

import legfronts

MAX_TOKENS = 4096


@pytest.mark.parametrize("path", sorted(Path(legfronts.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_module_stays_below_the_compile_cliff(path):
    with tokenize.open(path) as fh:
        tokens = tokenize.generate_tokens(fh.readline)
        count = sum(t.type not in (tokenize.COMMENT, tokenize.NL) for t in tokens)
    assert count < MAX_TOKENS
