"""CUDF/DUDF toolkit: typed parsing, serialization, solution-checking
semantics and a desk-scale optimal solver for upgrade problems."""

from ._record import FrozenInstanceError, replace
from .model import (
    CudfDocument,
    PackageItem,
    PropertySchema,
    RequestItem,
    SchemaRegistry,
    validate_document,
)
from .semantics import is_consistent, is_successor, satisfies_request
from .solver import installation_cost, preset_costs, solve
from .textio import parse_cudf, serialize_cudf
from .types import parse_value, serialize_value, is_subtype_value

__all__ = [
    "FrozenInstanceError",
    "replace",
    "CudfDocument",
    "PackageItem",
    "PropertySchema",
    "RequestItem",
    "SchemaRegistry",
    "validate_document",
    "is_consistent",
    "is_successor",
    "satisfies_request",
    "installation_cost",
    "preset_costs",
    "solve",
    "parse_cudf",
    "serialize_cudf",
    "parse_value",
    "serialize_value",
    "is_subtype_value",
]

__version__ = "0.1.0"
