"""CUDF document model: information items, property schemata, defaults.

A document is an ordered list of package items plus exactly one request
item.  Core property schemata are fixed; extra properties are open-ended
and handled through an explicit SchemaRegistry.  A schema without a
default holds None, which no value space holds.
"""

from __future__ import annotations

from . import types
from ._record import record
from .types import EMPTY_LIST, TRUE, EnumValue, VpkgFormula, VpkgList


KEEP_SYMBOLS = ("version", "package", "feature")
KEEP_ENUM = f"enum({', '.join(KEEP_SYMBOLS)})"


class NameCollision(ValueError):
    pass


class InvalidDocument(ValueError):
    def __init__(self, violations):
        self.violations = violations
        super().__init__("; ".join(v.detail for v in violations))


@record
class PropertySchema:
    name: str
    value_type: str
    item_kind: str  # "package" | "problem"
    optionality: str  # "required" | "optional"
    default: object = None  # None for no default: no value space holds None

    def __post_init__(self):
        # The reader honours no other value type, item kind or optionality.
        if not types.is_type_tag(self.value_type):
            raise ValueError(f"unknown value type {self.value_type!r}")
        if self.item_kind not in ("package", "problem"):
            raise ValueError(f"unknown item kind {self.item_kind!r}")
        if self.optionality not in ("required", "optional"):
            raise ValueError(f"unknown optionality {self.optionality!r}")
        if self.optionality == "required" and self.default is not None:
            raise ValueError("required properties carry no default")
        if self.default is not None and not types.is_subtype_value(
            self.default, self.value_type
        ):
            raise ValueError("default outside the property's value space")

    @property
    def has_default(self):
        return self.default is not None


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


@record
class RawValue:
    """An extra property with no registered schema, kept verbatim."""

    text: str


# RawValue has no __post_init__, so the reader builds each one through
# its slot and skips the argument handling of Record.__init__.
_set_raw_text = RawValue.__dict__["text"].__set__


def _raw_value(text):
    raw = object.__new__(RawValue)
    _set_raw_text(raw, text)
    return raw


def is_extra_name(name, item_kind):
    """Whether name can carry an extra property of an item_kind item: an
    identifier that names no core property, which it would read back as,
    and is not "Problem", whose line opens a problem stanza."""
    core = CORE_PACKAGE_SCHEMATA if item_kind == "package" else CORE_PROBLEM_SCHEMATA
    return not (name in core or name == "Problem") and types.is_identifier(name)


class SchemaRegistry:
    """Registry of extra-property schemata, keyed by (item kind, name)."""

    def __init__(self, schemata=()):
        self._extra = {}
        for schema in schemata:
            self.register(schema)

    def register(self, schema):
        if not is_extra_name(schema.name, schema.item_kind):
            raise NameCollision(f"{schema.name!r} cannot name an extra property")
        if schema.item_kind != "package":
            # A RequestItem has no extras, so the value would be lost.
            raise ValueError("only package items carry extra properties")
        if (schema.item_kind, schema.name) in self._extra:
            raise NameCollision(f"{schema.name!r} already registered")
        self._extra[(schema.item_kind, schema.name)] = schema
        return self

    def get(self, item_kind, name):
        return self._extra.get((item_kind, name))

    def package_extras(self):
        return [s for (kind, _), s in self._extra.items() if kind == "package"]


@record
class PackageItem:
    __slots__ = ("key",)  # (name, version), stored once where the record is built

    name: str
    version: int
    depends: VpkgFormula = TRUE
    conflicts: VpkgList = EMPTY_LIST
    provides: VpkgList = EMPTY_LIST
    installed: bool = False
    keep: EnumValue | None = None
    extra: tuple = ()  # sorted tuple of (name, value) pairs

    def __post_init__(self):
        # The constructor, replace, pickling and copies all come here.
        _set_key(self, (self.name, self.version))

    def extra_value(self, name, default=None):
        for prop, value in self.extra:
            if prop == name:
                return value
        return default

    def with_installed(self, flag):
        """This stanza with Installed set to flag; itself when its flag is
        flag already, so a rebuilt document shares every stanza it keeps."""
        if self.installed is flag:
            return self
        return _package_item(self.name, self.version, self.depends, self.conflicts,
                             self.provides, flag, self.keep, self.extra)


# PackageItem's __post_init__ only stores the key, so a record built
# through its slots, one member-descriptor call per field and one for the
# key, equals the constructor's; the reader and with_installed build every
# item this way, which skips the generic argument handling of
# Record.__init__ and replace.
_set_name = PackageItem.__dict__["name"].__set__
_set_version = PackageItem.__dict__["version"].__set__
_set_depends = PackageItem.__dict__["depends"].__set__
_set_conflicts = PackageItem.__dict__["conflicts"].__set__
_set_provides = PackageItem.__dict__["provides"].__set__
_set_installed = PackageItem.__dict__["installed"].__set__
_set_keep = PackageItem.__dict__["keep"].__set__
_set_extra = PackageItem.__dict__["extra"].__set__
_set_key = PackageItem.__dict__["key"].__set__


def _package_item(name, version, depends, conflicts, provides, installed, keep, extra):
    item = object.__new__(PackageItem)
    _set_name(item, name)
    _set_version(item, version)
    _set_depends(item, depends)
    _set_conflicts(item, conflicts)
    _set_provides(item, provides)
    _set_installed(item, installed)
    _set_keep(item, keep)
    _set_extra(item, extra)
    _set_key(item, (name, version))
    return item


@record
class RequestItem:
    problem_id: str = ""
    install: VpkgList = EMPTY_LIST
    remove: VpkgList = EMPTY_LIST
    upgrade: VpkgList = EMPTY_LIST


@record
class Violation:
    """One failed rule of a check, by kind: "DuplicateKey", "TypeError",
    "PropertyName" or "MissingProperty" (validation); "depends" or
    "conflicts" (consistency); "domain", "metadata" or "keep" (successor);
    "install", "remove" or "upgrade" (request)."""

    kind: str
    detail: str
    package: str | None = None
    version: int | None = None


@record
class CudfDocument:
    packages: tuple[PackageItem, ...] = ()
    request: RequestItem = RequestItem()

    def domain(self):
        return {item.key for item in self.packages}


def validate_document(doc, registry=None):
    """All global-constraint and schema violations in the document,
    including whatever its CUDF text could not carry back unchanged.

    Within one call each distinct package name, extra-property name and
    Provides value is checked once; only those that passed are
    remembered, so every bad occurrence is reported.  A Provides value
    is known by its id: the reader shares one value per distinct text,
    and the document holds every value for the whole call.  A parsed one
    is judged by its kept text, so validation builds no atoms."""
    violations = []
    append = violations.append
    required = required_package_extras(registry)
    seen = set()
    good_names = set()  # package names that passed is_pkgname
    good_extras = set()  # extra-property names that passed the name rules
    good_provides = set()  # ids of the Provides values that passed
    for item in doc.packages:
        name, version = item.name, item.version
        key = item.key
        if key in seen:
            append(Violation("DuplicateKey", f"duplicate stanza for {name} {version}",
                             name, version))
        seen.add(key)
        if name not in good_names:
            if types.is_pkgname(name):
                good_names.add(name)
            else:
                append(_type_error("Package", "pkgname", name, version))
        # the exact type first: a bool is an int, and other int subclasses are rare
        if type(version) is not int and (
                not isinstance(version, int) or isinstance(version, bool)) or version < 1:
            append(_type_error("Version", "posint", name, version))
        if not isinstance(item.depends, VpkgFormula):
            append(_type_error("Depends", "vpkgformula", name, version))
        if not isinstance(item.conflicts, VpkgList):
            append(_type_error("Conflicts", "vpkglist", name, version))
        provides = item.provides
        if provides is not EMPTY_LIST and id(provides) not in good_provides:
            if types.is_subtype_value(provides, "veqpkglist"):
                good_provides.add(id(provides))
            else:
                append(_type_error("Provides", "veqpkglist", name, version))
        installed = item.installed
        if installed is not True and installed is not False:
            append(_type_error("Installed", "bool", name, version))
        keep = item.keep
        # Other symbols would read back as the core three.
        if keep is not None and not (isinstance(keep, EnumValue)
                                     and keep.symbols == KEEP_SYMBOLS):
            append(_type_error("Keep", KEEP_ENUM, name, version))
        for prop in required:
            if all(extra != prop for extra, _ in item.extra):
                append(Violation("MissingProperty", f"missing required property {prop!r}",
                                 name, version))
        for prop, value in item.extra:
            if prop not in good_extras:
                if is_extra_name(prop, "package"):
                    good_extras.add(prop)
                else:
                    append(Violation("PropertyName",
                                     f"{prop!r} cannot name an extra property",
                                     name, version))
            schema = registry.get("package", prop) if registry else None
            if isinstance(value, RawValue):
                text = value.text
                if schema:  # the name reads back typed, never raw
                    append(_type_error(prop, schema.value_type, name, version))
                elif not isinstance(text, str) or "\n" in text or "\r" in text:
                    append(_type_error(prop, "oneliner", name, version))
                continue
            if schema and not types.is_subtype_value(value, schema.value_type):
                append(_type_error(prop, schema.value_type, name, version))
            elif not _has_one_line_form(value):
                append(Violation("TypeError", f"{prop} value has no one-line lexical form",
                                 name, version))
    if not types.is_subtype_value(doc.request.problem_id, "oneliner"):
        append(Violation("TypeError", "Problem value outside oneliner"))
    return violations


def _type_error(prop, value_type, name, version):
    return Violation("TypeError", f"{prop} value outside {value_type}", name, version)


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


def required_package_extras(registry):
    """Names of the registered package extras that every stanza must carry."""
    if not registry:
        return ()
    return tuple(s.name for s in registry.package_extras() if s.optionality == "required")
