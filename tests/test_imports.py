import os
import subprocess
import sys
from pathlib import Path

import fsotraj

# Importing `scipy.special` costs tens of milliseconds and a few MB, and
# `scipy.stats` close to a second and tens of MB, so the package imports
# neither at module level: a function that needs one imports it when called.
PROBE = """
import sys
import fsotraj, fsotraj.optimizer, fsotraj.scenario, fsotraj.cli
print(",".join(m for m in ("scipy.special", "scipy.stats") if m in sys.modules))
"""


def test_package_import_leaves_heavy_scipy_modules_unimported():
    src = str(Path(fsotraj.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == ""
