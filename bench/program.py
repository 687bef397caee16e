"""Fresh imports of the program under test, from the checkout's `src`."""
from __future__ import annotations

import importlib
import os
import sys
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MODULES = ("geom", "model", "generators", "valuation", "solver", "verifier",
           "selection", "scoring")


def available() -> bool:
    return os.path.isfile(os.path.join(SRC, "polypack", "__init__.py"))


def purge() -> None:
    """Forget every polypack module, so the next load imports them anew."""
    for name in [n for n in sys.modules if n == "polypack" or n.startswith("polypack.")]:
        del sys.modules[name]


def load() -> SimpleNamespace:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    pp = SimpleNamespace(**{m: importlib.import_module("polypack." + m) for m in MODULES})
    where = os.path.dirname(os.path.abspath(pp.geom.__file__))
    if where != os.path.join(SRC, "polypack"):
        raise ImportError(f"polypack imported from {where}, not from {SRC}")
    return pp
