"""Every script under scripts/ still imports against the package.

Each one runs under a run name other than "__main__", so its imports and
module-level definitions execute but its main() does not.
"""

import runpy
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path):
    runpy.run_path(str(path), run_name="not_main")
