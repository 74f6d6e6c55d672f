import ast
import os
import re
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


ROOT = Path(__file__).resolve().parents[1]


def _named(tree: ast.AST) -> set[str]:
    """Every identifier a module's code names: names, attributes, imports, and
    the parts of string constants that spell a (dotted) name, as a patch target does."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and re.fullmatch(r"[\w.]+", node.value):
            names.update(node.value.split("."))
    return names


def test_every_public_definition_has_a_caller_outside_the_tests():
    # The package ships what a command, a script or the benchmark calls;
    # an oracle that only tests call belongs in tests/reference_*.py.
    # pyproject.toml counts too: its warning filter names a class.
    named = set(re.findall(r"\w+", (ROOT / "pyproject.toml").read_text(encoding="utf-8")))
    defined = []
    for part in ("src", "scripts", "bench"):
        for path in sorted((ROOT / part).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            named |= _named(tree)
            if part == "src":
                defined += [
                    (node.name, path.relative_to(ROOT).as_posix())
                    for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
                ]
    unused = [f"{where}: {name}" for name, where in defined if name not in named and name not in fsotraj.__all__]
    assert not unused, "only tests call " + ", ".join(unused)
