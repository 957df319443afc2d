"""The record base shared by every immutable record of the package."""

import copy
import pickle
from pathlib import Path

import pytest

from cudfkit import dudf, model, solver, textio, types
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


def record_types():
    """The record classes: the subclasses of Record that own a twin."""
    return {cls for cls in Record.__subclasses__() if "_draft" in vars(cls)}


def test_every_record_type_survives_pickle_and_copy():
    records = one_record_of_each_type()
    # Every other subclass of Record is the private twin of a record class
    # (see _record), as which no record escapes.
    classes = record_types()
    assert set(Record.__subclasses__()) == classes | {cls._draft for cls in classes}
    assert {type(r) for r in records} == classes
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


def built_and_constructed():
    """(record from a private builder, the constructor's equal) for each
    record class that a builder makes: on a twin for PackageItem, VPkg
    and VersionConstraint, through one slot for the rest."""
    atoms = types._canonical_atoms(["aa", "bb >= 2", "cc = 10"])
    ge2 = VersionConstraint(">=", 2)
    yield from zip(atoms, (VPkg("aa"), VPkg("bb", ge2), VPkg("cc", VersionConstraint("=", 10))))
    yield atoms[1].constraint, ge2
    keep = EnumValue(model.KEEP_SYMBOLS, "feature")
    core = ("aa", 2, VpkgFormula(((VPkg("bb", ge2), VPkg("cc")),)), VpkgList((VPkg("dd"),)),
            VpkgList((VPkg("ee"),)), True, keep)
    extra = (("Note", model.RawValue("hi")),)
    yield model._package_item(core, extra), model.PackageItem(*core, extra)
    yield model.PackageItem("aa", 1).with_installed(True), model.PackageItem("aa", 1, installed=True)
    yield model._raw_value("hi"), model.RawValue("hi")
    yield types.parse_value("vpkglist", "aa, bb >= 2"), VpkgList((VPkg("aa"), VPkg("bb", ge2)))
    yield (types.parse_value("vpkgformula", "aa | bb >= 2, cc"),
           VpkgFormula(((VPkg("aa"), VPkg("bb", ge2)), (VPkg("cc"),))))


def test_a_built_record_is_its_constructors_equal_and_frozen():
    pairs = list(built_and_constructed())
    assert {type(built) for built, _ in pairs} == {
        VPkg, VersionConstraint, model.PackageItem, model.RawValue, VpkgList, VpkgFormula}
    for built, constructed in pairs:
        for copied in (built, *round_trips(built)):
            assert type(copied) is type(constructed)
            assert copied == constructed and hash(copied) == hash(constructed)
            assert repr(copied) == repr(constructed)
            assert not hasattr(copied, "__dict__")
        for slot in type(built).__slots__:
            with pytest.raises(FrozenInstanceError):
                setattr(built, slot, None)
            with pytest.raises(FrozenInstanceError):
                delattr(built, slot)
        with pytest.raises(FrozenInstanceError):
            built.note = 1


def reachable_records(*roots):
    """Every record reachable from roots through tuples, lists and each
    record's slots.  Reading a slot builds an unbuilt formula's or list's
    atoms."""
    seen, stack, found = set(), list(roots), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Record):
            found.append(obj)
            stack.extend(getattr(obj, slot) for slot in type(obj).__slots__)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
    return found


def test_no_record_escapes_as_its_twin():
    roots = []
    for path in sorted(GOLDEN.glob("*.cudf")):
        roots.append(textio.parse_cudf(path.read_bytes()).document)
    problem = textio.parse_cudf((GOLDEN / "kitchen.cudf").read_bytes()).document
    flipped = [p for p in problem.packages if not p.installed]
    assert flipped  # apply_solution sets their flags, so it builds stanzas
    solution = textio.serialize_solution(model.CudfDocument(tuple(flipped), problem.request))
    roots.append(textio.apply_solution(problem, textio.parse_solution(solution)))
    mta = textio.parse_cudf((GOLDEN / "mta.cudf").read_bytes()).document
    costs = solver.preset_costs(mta, mta.request, "min-new")
    roots.append(solver.compile_problem(mta, mta.request, costs).stanzas)
    answer = solver.solve(mta, mta.request, costs)
    assert answer.status == "solution"
    kept = {id(p) for p in mta.packages}
    assert any(id(p) not in kept for p in answer.document.packages)  # one was built
    roots.append(answer.document)
    submission = dudf.xml_to_dudf((GOLDEN / "submission.xml").read_bytes())
    roots.append(dudf.toy_convert(submission))
    records = reachable_records(*roots)
    assert {type(r) for r in records} >= {
        model.CudfDocument, model.PackageItem, VPkg, VersionConstraint}
    classes = record_types()
    for found in records:
        assert type(found) in classes, type(found).__qualname__


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
