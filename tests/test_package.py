"""The package's public name list."""

import inspect

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
