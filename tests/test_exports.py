import pkgutil

import pytest

import ftspectra

# __main__ runs the command line on import
MODULES = ["ftspectra"] + [f"ftspectra.{m.name}"
                           for m in pkgutil.iter_modules(ftspectra.__path__)
                           if m.name != "__main__"]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    # raises AttributeError for a name left in a module's __all__ after its
    # definition is deleted; for the package it imports every name that
    # __init__ re-exports
    exec(f"from {module} import *", {})
