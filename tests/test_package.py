"""The package's public name list, and what its import loads."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import convexuq


def test_public_names_are_listed_once():
    """__all__ lists each name once, every listed name resolves on the
    package, and every public function, class and constant bound in it is
    listed; of the submodules only `errors` is."""
    listed = convexuq.__all__
    assert len(listed) == len(set(listed))
    assert [name for name in listed if not hasattr(convexuq, name)] == []
    bound = {
        name
        for name, value in vars(convexuq).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert sorted(bound - set(listed)) == []
    assert [name for name in listed if inspect.ismodule(getattr(convexuq, name))] == ["errors"]


def test_import_loads_no_scipy():
    """`import convexuq` loads no scipy module: the solver imports
    scipy.optimize when a solve starts, and the renderer scipy.spatial at
    its first parallelepiped render."""
    code = (
        "import sys, convexuq\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(convexuq.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.strip() == "[]"
