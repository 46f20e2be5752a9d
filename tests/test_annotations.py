"""Annotations in the package are evaluated where they are written.

Under ``from __future__ import annotations`` (PEP 563) every annotation
is stored as a string, and ``typing`` compiles each ``NamedTuple`` field's
string into a ``typing.ForwardRef``, which it keeps in the class's
``__annotations__``: one ``compile()`` per field at every import, which
cached bytecode does not remove.  The package's Python floor (3.10)
evaluates every annotation the package writes, so the directive would
only cost start-up time.
"""

import importlib
import inspect
import pkgutil
import typing

import titeica


def namedtuple_classes():
    for info in pkgutil.iter_modules(titeica.__path__, "titeica."):
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if inspect.isclass(cls) and hasattr(cls, "_fields") and cls.__module__ == module.__name__:
                yield cls


def test_namedtuple_fields_are_not_strings():
    classes = list(namedtuple_classes())
    assert len(classes) == 17
    stringly = [f"{cls.__module__}.{cls.__qualname__}.{field}"
                for cls in classes
                for field, annotation in cls.__annotations__.items()
                if isinstance(annotation, (str, typing.ForwardRef))]
    assert stringly == []
