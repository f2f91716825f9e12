"""Import difprec from the checkout's own `src/`, never from anywhere else."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def import_difprec():
    """Put <checkout>/src first on sys.path and import difprec from there.

    Exits with status 2 when the checkout has no difprec sources, or when the
    import resolves to a copy outside the checkout.
    """
    if not (SRC / "difprec" / "__init__.py").is_file():
        sys.exit(f"perfbench: no difprec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import difprec

    if Path(difprec.__file__).resolve().parent != (SRC / "difprec").resolve():
        sys.exit(f"perfbench: difprec imported from {difprec.__file__}, not from {SRC}")
    return difprec


def describe() -> str:
    import numpy

    return (
        f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} numpy={numpy.__version__}"
    )
