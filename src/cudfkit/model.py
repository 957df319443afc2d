"""CUDF document model: information items, property schemata, defaults.

A document is an ordered list of package items plus exactly one request
item.  Core property schemata are fixed; extra properties are open-ended
and handled through an explicit SchemaRegistry.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import types
from .types import EMPTY_LIST, TRUE, EnumValue, VPkg, VpkgFormula, VpkgList

_MISSING = object()

KEEP_SYMBOLS = ("version", "package", "feature")
KEEP_ENUM = f"enum({', '.join(KEEP_SYMBOLS)})"


class NameCollision(ValueError):
    pass


class InvalidDocument(ValueError):
    def __init__(self, violations):
        self.violations = violations
        super().__init__("; ".join(v.detail for v in violations))


@dataclass(frozen=True)
class PropertySchema:
    name: str
    value_type: str
    item_kind: str  # "package" | "problem"
    optionality: str  # "required" | "optional"
    default: object = _MISSING

    def __post_init__(self):
        if self.optionality == "required" and self.default is not _MISSING:
            raise ValueError("required properties carry no default")
        if self.default is not _MISSING and not types.is_subtype_value(
            self.default, self.value_type
        ):
            raise ValueError("default outside the property's value space")

    @property
    def has_default(self):
        return self.default is not _MISSING


CORE_PACKAGE_SCHEMATA = {
    "Package": PropertySchema("Package", "pkgname", "package", "required"),
    "Version": PropertySchema("Version", "posint", "package", "required"),
    "Depends": PropertySchema("Depends", "vpkgformula", "package", "optional", TRUE),
    "Conflicts": PropertySchema("Conflicts", "vpkglist", "package", "optional", EMPTY_LIST),
    "Provides": PropertySchema("Provides", "veqpkglist", "package", "optional", EMPTY_LIST),
    "Installed": PropertySchema("Installed", "bool", "package", "optional", False),
    "Keep": PropertySchema("Keep", KEEP_ENUM, "package", "optional"),
}

CORE_PROBLEM_SCHEMATA = {
    "Install": PropertySchema("Install", "vpkglist", "problem", "optional", EMPTY_LIST),
    "Remove": PropertySchema("Remove", "vpkglist", "problem", "optional", EMPTY_LIST),
    "Upgrade": PropertySchema("Upgrade", "vpkglist", "problem", "optional", EMPTY_LIST),
}


@dataclass(frozen=True, slots=True)
class RawValue:
    """An extra property with no registered schema, kept verbatim."""

    text: str


class SchemaRegistry:
    """Registry of extra-property schemata, keyed by (item kind, name)."""

    def __init__(self, schemata=()):
        self._extra = {}
        for schema in schemata:
            self.register(schema)

    def register(self, schema):
        core = CORE_PACKAGE_SCHEMATA if schema.item_kind == "package" else CORE_PROBLEM_SCHEMATA
        if schema.name in core:
            raise NameCollision(f"{schema.name!r} is a core property")
        if (schema.item_kind, schema.name) in self._extra:
            raise NameCollision(f"{schema.name!r} already registered")
        self._extra[(schema.item_kind, schema.name)] = schema
        return self

    def get(self, item_kind, name):
        return self._extra.get((item_kind, name))

    def package_extras(self):
        return [s for (kind, _), s in self._extra.items() if kind == "package"]


@dataclass(frozen=True, slots=True)
class PackageItem:
    name: str
    version: int
    depends: VpkgFormula = TRUE
    conflicts: VpkgList = EMPTY_LIST
    provides: VpkgList = EMPTY_LIST
    installed: bool = False
    keep: EnumValue | None = None
    extra: tuple = ()  # sorted tuple of (name, value) pairs

    @property
    def key(self):
        return (self.name, self.version)

    def extra_value(self, name, default=None):
        for prop, value in self.extra:
            if prop == name:
                return value
        return default

    def with_installed(self, flag):
        return replace(self, installed=flag)


def make_extra(mapping):
    """Normalize an extra-property mapping into the stored tuple form."""
    return tuple(sorted(mapping.items()))


@dataclass(frozen=True, slots=True)
class RequestItem:
    problem_id: str = ""
    install: VpkgList = EMPTY_LIST
    remove: VpkgList = EMPTY_LIST
    upgrade: VpkgList = EMPTY_LIST


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str
    package: str | None = None
    version: int | None = None


@dataclass(frozen=True)
class CudfDocument:
    packages: tuple[PackageItem, ...] = ()
    request: RequestItem = field(default_factory=RequestItem)

    def lookup(self, name, version):
        """The unique item keyed by (name, version), or None."""
        for item in self.packages:
            if item.name == name and item.version == version:
                return item
        return None

    def domain(self):
        return {item.key for item in self.packages}

    def remove_package(self, name, version):
        """Document with the (name, version) item removed; identity if absent."""
        kept = tuple(p for p in self.packages if p.key != (name, version))
        return replace(self, packages=kept)

    def versions_of(self, name):
        return sorted(item.version for item in self.packages if item.name == name)


def validate_document(doc, registry=None):
    """All global-constraint and schema violations in the document,
    including whatever its CUDF text could not carry back unchanged."""
    violations = []
    seen = set()
    for item in doc.packages:
        if item.key in seen:
            violations.append(
                Violation("DuplicateKey", f"duplicate stanza for {item.name} {item.version}",
                          item.name, item.version)
            )
        seen.add(item.key)
        violations.extend(_check_item_types(item, registry))
    if not types.is_subtype_value(doc.request.problem_id, "oneliner"):
        violations.append(Violation("TypeError", "Problem value outside oneliner"))
    return violations


def _check_item_types(item, registry):
    out = []

    def bad(prop, value_type):
        out.append(
            Violation("TypeError", f"{prop} value outside {value_type}",
                      item.name, item.version)
        )

    name, version = item.name, item.version
    if not types.is_pkgname(name):
        bad("Package", "pkgname")
    if not isinstance(version, int) or isinstance(version, bool) or version < 1:
        bad("Version", "posint")
    if not isinstance(item.depends, VpkgFormula):
        bad("Depends", "vpkgformula")
    if not isinstance(item.conflicts, VpkgList):
        bad("Conflicts", "vpkglist")
    provides = item.provides
    if not isinstance(provides, VpkgList) or not all(
        isinstance(a, VPkg) and a.constraint.relop in (None, "=") for a in provides.items
    ):
        bad("Provides", "veqpkglist")
    if not isinstance(item.installed, bool):
        bad("Installed", "bool")
    keep = item.keep
    # Other symbols would read back as the core three.
    if keep is not None and not (isinstance(keep, EnumValue) and keep.symbols == KEEP_SYMBOLS):
        bad("Keep", KEEP_ENUM)
    for prop, value in item.extra:
        # A core name would read back as the core property, and a
        # "Problem: " line would open a problem stanza.
        if prop in CORE_PACKAGE_SCHEMATA or prop == "Problem" or not types.is_identifier(prop):
            out.append(Violation("PropertyName", f"{prop!r} cannot name an extra property",
                                 name, version))
        if isinstance(value, RawValue):
            if not types.is_subtype_value(value.text, "oneliner"):
                bad(prop, "oneliner")
            continue
        schema = registry.get("package", prop) if registry else None
        if schema and not types.is_subtype_value(value, schema.value_type):
            bad(prop, schema.value_type)
        elif not _has_one_line_form(value):
            out.append(Violation("TypeError", f"{prop} value has no one-line lexical form",
                                 name, version))
    return out


def _has_one_line_form(value):
    """Whether a typed value's canonical text fits on its property line."""
    try:
        return types.is_subtype_value(types.serialize_value(value), "oneliner")
    except types.SerializeError:
        return False


def package_extra_defaults(registry):
    """(name, default) of every registered package extra with a default."""
    if not registry:
        return ()
    return tuple((s.name, s.default) for s in registry.package_extras() if s.has_default)


def package_from_fields(fields, extra_defaults):
    """The PackageItem of a field mapping, given
    package_extra_defaults(registry): a reader of many stanzas computes
    those once."""
    extra = [(prop, value) for prop, value in fields.items()
             if prop not in CORE_PACKAGE_SCHEMATA]
    for prop, default in extra_defaults:
        if prop not in fields:
            extra.append((prop, default))
    extra.sort()
    return PackageItem(
        fields["Package"],
        fields["Version"],
        fields.get("Depends", TRUE),
        fields.get("Conflicts", EMPTY_LIST),
        fields.get("Provides", EMPTY_LIST),
        fields.get("Installed", False),
        fields.get("Keep"),
        tuple(extra),
    )
