"""Where the benchmark finds the package: the ``src`` tree of the checkout
that holds this directory, never an installed copy."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "bench" / "results"


def import_package() -> None:
    """Put ``src`` first on the path and import the package from it.
    Exits with a message, and a nonzero code, when the tree is absent."""
    if not (SRC / "algebroids" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import algebroids

    if Path(algebroids.__file__).resolve().parent != SRC / "algebroids":
        raise SystemExit(f"error: algebroids imported from {algebroids.__file__}")
