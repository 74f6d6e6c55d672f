#!/usr/bin/env python3
"""Run the ``fsotraj`` command line from this checkout, without installing it.

    python3 scripts/fsotraj_cli.py COMMAND [OPTIONS]

The arguments are those of ``fsotraj``; the script puts the checkout's
``src/`` on the import path first. For example
``python3 scripts/fsotraj_cli.py optimize --scenario scenarios/moving.ini --out out/moving``.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fsotraj.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
