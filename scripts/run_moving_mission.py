#!/usr/bin/env python3
"""Optimize the standard moving mission and write its full report."""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fsotraj.cli import main  # noqa: E402

if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "out/moving"
    sys.exit(
        main(["optimize", "--scenario", str(ROOT / "scenarios" / "moving.ini"), "--out", out])
    )
