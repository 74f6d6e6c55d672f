#!/usr/bin/env python3
"""Optimize the hover mission under 1/2/3-DoF jitter models and score all
trajectories under the true pitch-dominant jitter."""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fsotraj.cli import main  # noqa: E402

if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "out/dof"
    sys.exit(
        main(
            [
                "compare-dof",
                "--scenario",
                str(ROOT / "scenarios" / "hover_pitch_jitter.ini"),
                "--out",
                out,
            ]
        )
    )
