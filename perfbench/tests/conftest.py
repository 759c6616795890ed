"""Put the engine source and the repository root on the import path, the
way ``perfbench/run.py`` does for the benchmark itself."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
