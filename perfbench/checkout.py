"""Locate the checkout the benchmark runs in and import ``repro`` from it.

The benchmark must measure the sources of the checkout it sits in, never a
``repro`` installed elsewhere on the machine, so the import is pinned to
``<root>/src`` and verified after the fact.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: The checkout root: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class CheckoutError(RuntimeError):
    """The directory the benchmark runs in holds no buildable ``repro``."""


def import_repro():
    """Import ``repro`` from ``<root>/src``; raise :class:`CheckoutError` if absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise CheckoutError(f"no repro sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    location = Path(repro.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise CheckoutError(f"repro was imported from {location}, not {SRC}")
    return repro


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"
