"""Import soficlab from the ``src`` tree of the checkout the benchmark runs in."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

MODULES = ("shift", "semigroups", "karoubi", "flowlab", "cli")


class MissingSource(Exception):
    pass


def fresh_import(root: Path) -> dict:
    """Import the package anew, dropping any copy already loaded.

    Returns the package and its layer modules by short name.  Refuses a
    soficlab found anywhere but ``root/src``, so an installed copy is never
    measured in place of the checkout.
    """
    src = (root / "src").resolve()
    if not (src / "soficlab" / "__init__.py").is_file():
        raise MissingSource(f"no soficlab package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "soficlab" or m.startswith("soficlab.")]:
        del sys.modules[name]
    package = importlib.import_module("soficlab")
    if Path(package.__file__).resolve().parent != src / "soficlab":
        raise MissingSource(f"soficlab was imported from {package.__file__}, not {src}")
    loaded = {name: importlib.import_module(f"soficlab.{name}") for name in MODULES}
    loaded["soficlab"] = package
    return loaded
