"""Make the benchmark's own modules importable (they are run as
scripts, so ``benchmarks/e2e`` is not a package)."""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(E2E))
