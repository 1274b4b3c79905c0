import importlib
import inspect

import pytest

import koopext


@pytest.mark.parametrize("name", koopext.__all__)
def test_all_lists_exactly_the_public_functions_and_classes(name):
    mod = importlib.import_module(f"koopext.{name}")
    defined = {
        attr
        for attr, val in vars(mod).items()
        if not attr.startswith("_")
        and (inspect.isfunction(val) or inspect.isclass(val))
        and val.__module__ == mod.__name__
    }
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert all(hasattr(mod, attr) for attr in mod.__all__)
    exported = {
        attr for attr in mod.__all__
        if inspect.isfunction(getattr(mod, attr)) or inspect.isclass(getattr(mod, attr))
    }
    assert exported == defined
