#!/usr/bin/env python3
"""Pointing-error law for the standard comparison geometry, with the Monte
Carlo histogram alongside the closed-form density."""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fsotraj.cli import main  # noqa: E402

if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "out/pointing"
    sys.exit(main(["pointing", "--out", out]))
