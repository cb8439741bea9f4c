"""Put the checkout's own `src` first on sys.path and import kcdag from it.

The benchmark runs from the root of a source checkout; it must measure that
checkout's package and nothing installed elsewhere.  Without one it exits
with status 1 before printing any result.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "kcdag" / "__init__.py").is_file():
    sys.exit(f"perfbench: no kcdag source package under {SRC}")
sys.path.insert(0, str(SRC))

import kcdag  # noqa: E402

if Path(kcdag.__file__).resolve().parent != SRC / "kcdag":
    sys.exit(f"perfbench: imported kcdag from {kcdag.__file__}, not from {SRC}")
