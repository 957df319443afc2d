"""The record base shared by every immutable record of the package."""

import copy
import pickle
from pathlib import Path

import pytest

from cudfkit import dudf, model, textio
from cudfkit._record import FrozenInstanceError, Record, fields, replace
from cudfkit.types import EnumValue, VersionConstraint, VPkg, VpkgFormula, VpkgList

GOLDEN = Path(__file__).parent / "golden"


def one_record_of_each_type():
    atom = VPkg("aa", VersionConstraint(">=", 2))
    keep = EnumValue(model.KEEP_SYMBOLS, "version")
    item = model.PackageItem("aa", 2, VpkgFormula(((atom, VPkg("bb")),)),
                             VpkgList((VPkg("cc"),)), VpkgList((VPkg("dd", VersionConstraint("=", 1)),)),
                             True, keep, (("Note", model.RawValue("hi")),))
    request = model.RequestItem("pb", install=VpkgList((atom,)))
    status = dudf.PackageStatus(dudf.Extensional("Package: aa\nVersion: 2\n"),
                                dudf.Intensional("sha1:0f0f"))
    problem = dudf.DudfProblem(
        status, (dudf.PackageList("cudf-stanzas", dudf.Extensional(""), "universe"),),
        dudf.Extensional("Install: aa"))
    return [
        atom.constraint, atom, item.depends, item.conflicts, keep,
        model.PropertySchema("Size", "posint", "package", "required"),  # no default
        model.PropertySchema("Cost", "int", "package", "optional", 0),
        item.extra[0][1], item, request,
        model.Violation("TypeError", "Version value outside posint", "aa", 2),
        model.CudfDocument((item,), request),
        textio.RecoveredError(1, (0, 12), "missing required property 'Version'", 3),
        dudf.Extensional("x"), dudf.Intensional("sha1:0f0f"), problem.package_universe[0],
        status, problem, dudf.DudfOutcome("success", package_status=status),
        dudf.DudfDocument("Tue, 18 Aug 2026 09:30:00 +0200", "uid-1", "examplix 9.2",
                          ("exampkg", "1.4"), ("exampkg-frontend", "0.9"), problem),
        dudf.DudfViolation("dudf/uid", "uid must be non-empty"),
    ]


def round_trips(record):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(record, protocol))
    yield copy.copy(record)
    yield copy.deepcopy(record)


def test_every_record_type_survives_pickle_and_copy():
    records = one_record_of_each_type()
    assert {type(r) for r in records} == set(Record.__subclasses__())
    # A parsed document: its records are built through their slots and
    # share one VersionConstraint per (relop, version).
    records.append(textio.parse_cudf((GOLDEN / "kitchen.cudf").read_bytes()).document)
    for record in records:
        for copied in round_trips(record):
            assert type(copied) is type(record)
            assert copied == record and hash(copied) == hash(record)
            assert repr(copied) == repr(record)
            assert not hasattr(copied, "__dict__")
            with pytest.raises(FrozenInstanceError):
                setattr(copied, fields(copied)[0], None)
    schema = records[5]
    assert not any(copied.has_default for copied in round_trips(schema))


def test_constructor_and_replace_reject_bad_arguments():
    with pytest.raises(TypeError, match="missing required argument 'name'"):
        VPkg()
    with pytest.raises(TypeError, match="takes 2 positional arguments but 3"):
        VPkg("aa", VersionConstraint(), 3)
    with pytest.raises(TypeError, match="multiple values for argument 'name'"):
        VPkg("aa", name="bb")
    with pytest.raises(TypeError, match="unexpected keyword argument 'nmae'"):
        VPkg("aa", nmae="bb")
    with pytest.raises(TypeError, match="unexpected keyword argument 'nmae'"):
        replace(VPkg("aa"), nmae="bb")
    assert VPkg(name="aa") == VPkg("aa", VersionConstraint())
    assert VPkg("aa") != ("aa", VersionConstraint())


def test_records_match_positional_patterns_in_field_order():
    match VPkg("aa", VersionConstraint(">=", 2)):
        case VPkg(name, VersionConstraint(relop, version)):
            assert (name, relop, version) == ("aa", ">=", 2)
        case _:
            pytest.fail("no match")
