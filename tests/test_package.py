"""The package's public name list, and what its import loads."""

import importlib.metadata
import inspect
import os
import subprocess
import sys
import tomllib
from pathlib import Path

from packaging.requirements import Requirement
from packaging.specifiers import SpecifierSet
from packaging.version import Version

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
    """`import convexuq` loads no scipy module: the solver loads the SLSQP
    extension when a solve starts, and the renderer scipy.spatial at its
    first parallelepiped render."""
    code = (
        "import sys, convexuq\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(convexuq.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.strip() == "[]"


def _floor(specifier: SpecifierSet) -> Version:
    """The version a specifier's `>=` clause sets as its lowest."""
    (floor,) = [Version(spec.version) for spec in specifier if spec.operator == ">="]
    return floor


def test_declared_floors_meet_the_installed_scipy():
    """pyproject.toml's Python and numpy floors are no lower than those the
    installed scipy's own metadata declares, and that scipy meets the
    declared scipy floor: a floor below scipy's names installs that it
    refuses."""
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    declared = {req.name: req for req in map(Requirement, project["dependencies"])}
    scipy = importlib.metadata.distribution("scipy")
    assert scipy.version in declared["scipy"].specifier
    python_floor = _floor(SpecifierSet(scipy.metadata["Requires-Python"]))
    assert _floor(SpecifierSet(project["requires-python"])) >= python_floor
    (numpy,) = [
        req
        for req in map(Requirement, scipy.requires)
        if req.name == "numpy" and req.marker is None
    ]
    assert _floor(declared["numpy"].specifier) >= _floor(numpy.specifier)
