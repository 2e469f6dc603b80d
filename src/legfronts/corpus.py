"""Bundled example fronts.

The files live in the ``data`` directory of the installed package; the
``LEGFRONTS_CORPUS_DIR`` environment variable points the loader at an
alternative directory of ``*.front`` files instead.
"""

import os
from importlib import resources
from pathlib import Path

from . import fronts

CORPUS_ENV_VAR = "LEGFRONTS_CORPUS_DIR"

DESCRIPTIONS = {
    "unknot": "flying-saucer unknot, tb = -1, r = 0",
    "stabilized_unknot": "once-stabilized unknot, tb = -2, |r| = 1, no rulings",
    "unlink2": "two-component unlink, nested saucers",
    "trefoil": "right-handed trefoil at maximal tb = 1",
    "51": "(2,5) torus knot at maximal tb = 3",
    "trefoil_sum": "connected sum of two maximal-tb trefoils",
}


def _data_dir() -> Path:
    override = os.environ.get(CORPUS_ENV_VAR)
    if override:
        return Path(override)
    return Path(str(resources.files(__package__) / "data"))


def corpus_names() -> list[str]:
    return sorted(p.stem for p in _data_dir().glob("*.front"))


def corpus_path(name: str) -> Path:
    path = _data_dir() / f"{name}.front"
    if not path.is_file():
        raise FileNotFoundError(f"no bundled front named {name!r} in {_data_dir()}")
    return path


def load(name: str) -> fronts.FrontDiagram:
    path = corpus_path(name)
    return fronts.parse_front(path.read_text(), name=name)

