"""CUDF/DUDF toolkit: typed parsing, serialization, solution-checking
semantics and a desk-scale optimal solver for upgrade problems.

Importing the package loads none of its modules.  Each name of __all__,
and each submodule that defines one, is loaded on first access (PEP 562)
and then kept in the package namespace, so `import cudfkit.cli` pays
only for what the CLI itself imports.
"""

import sys

# name -> the submodule that defines it, in the order of __all__
_ORIGINS = {
    "FrozenInstanceError": "_record",
    "replace": "_record",
    "CudfDocument": "model",
    "PackageItem": "model",
    "PropertySchema": "model",
    "RequestItem": "model",
    "SchemaRegistry": "model",
    "validate_document": "model",
    "is_consistent": "semantics",
    "is_successor": "semantics",
    "satisfies_request": "semantics",
    "installation_cost": "solver",
    "preset_costs": "solver",
    "solve": "solver",
    "parse_cudf": "textio",
    "serialize_cudf": "textio",
    "parse_value": "types",
    "serialize_value": "types",
    "is_subtype_value": "types",
}

__all__ = list(_ORIGINS)

__version__ = "0.1.0"


def _submodule(name):
    """The submodule `name`, imported by the interpreter's import
    statement machinery, which -X importtime logs (importlib.import_module
    is not logged, so its time would show as the importer's own)."""
    qualified = f"{__name__}.{name}"
    __import__(qualified)
    return sys.modules[qualified]


def __getattr__(name):
    if name in _ORIGINS:
        value = getattr(_submodule(_ORIGINS[name]), name)
    elif name in _ORIGINS.values():
        value = _submodule(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
