"""What the cred package exports."""

import inspect
import typing

import pytest

import cred

EXPORTED = sorted(name for name, obj in vars(cred).items()
                  if not name.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj)))


@pytest.mark.parametrize("name", EXPORTED)
def test_annotations_resolve(name):
    # postponed annotations are strings; each must name something its module imports
    typing.get_type_hints(getattr(cred, name))
