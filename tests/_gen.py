"""Shared random generators and independent oracles for the test suite.

The oracles here are deliberate re-transcriptions of the checking rules,
written against plain dicts and explicit enumeration so they share no
code path with the library.
"""

import random
import re
from types import SimpleNamespace

from cudfkit.model import CudfDocument, PackageItem, RequestItem
from cudfkit.types import (
    TOP,
    EnumValue,
    VersionConstraint,
    VPkg,
    VpkgFormula,
    VpkgList,
)

NAMES = ["aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh", "ii", "jj"]
FEATURES = ["feat-x", "feat-y", "feat-z"]
KEEP_SYMBOLS = ("version", "package", "feature")
RELOPS = ("=", "!=", ">", "<", ">=", "<=")


def make_extra(mapping):
    """The stored form of a package's extra properties: (name, value)
    pairs sorted by name."""
    return tuple(sorted(mapping.items()))


def rand_constraint(rng, max_version=5):
    if rng.random() < 0.4:
        return TOP
    return VersionConstraint(rng.choice(RELOPS), rng.randint(1, max_version))


def rand_atom(rng, names, max_version=5):
    return VPkg(rng.choice(names), rand_constraint(rng, max_version))


def rand_formula(rng, names, max_clauses=2, max_atoms=2, max_version=5):
    clauses = []
    for _ in range(rng.randint(0, max_clauses)):
        clauses.append(
            tuple(rand_atom(rng, names, max_version)
                  for _ in range(rng.randint(1, max_atoms)))
        )
    return VpkgFormula(tuple(clauses))


def rand_list(rng, names, max_len=2, max_version=5):
    return VpkgList(
        tuple(rand_atom(rng, names, max_version) for _ in range(rng.randint(0, max_len)))
    )


def rand_provides(rng, features, max_len=2, max_version=3, allow_top=True):
    items = []
    for _ in range(rng.randint(0, max_len)):
        name = rng.choice(features)
        if allow_top and rng.random() < 0.3:
            items.append(VPkg(name))
        else:
            items.append(VPkg(name, VersionConstraint("=", rng.randint(1, max_version))))
    return VpkgList(tuple(items))


def rand_document(
    rng,
    max_names=4,
    max_versions=3,
    with_keep=True,
    with_provides=True,
    allow_top_provides=True,
    with_request=True,
    max_stanzas=None,
):
    names = rng.sample(NAMES, rng.randint(1, max_names))
    atom_names = names + (FEATURES if with_provides else [])
    packages = []
    for name in names:
        versions = rng.sample(range(1, max_versions + 3), rng.randint(1, max_versions))
        for version in versions:
            keep = None
            if with_keep and rng.random() < 0.2:
                keep = EnumValue(KEEP_SYMBOLS, rng.choice(KEEP_SYMBOLS))
            packages.append(
                PackageItem(
                    name=name,
                    version=version,
                    depends=rand_formula(rng, atom_names),
                    conflicts=rand_list(rng, atom_names),
                    provides=(
                        rand_provides(rng, FEATURES, allow_top=allow_top_provides)
                        if with_provides
                        else VpkgList()
                    ),
                    installed=rng.random() < 0.5,
                    keep=keep,
                )
            )
    if max_stanzas is not None:
        packages = packages[:max_stanzas]
    request = RequestItem(problem_id=f"prob-{rng.randint(0, 999)}")
    if with_request:
        request = RequestItem(
            problem_id=request.problem_id,
            install=rand_list(rng, atom_names, max_len=1),
            remove=rand_list(rng, atom_names, max_len=1),
            upgrade=rand_list(rng, [rng.choice(names)], max_len=1)
            if rng.random() < 0.3
            else VpkgList(),
        )
    return CudfDocument(packages=tuple(packages), request=request)


# ---------------------------------------------------------------------------
# Independent consistency oracle: direct transcription of the definitions
# with explicit enumeration (no symbolic all-versions sets, so only usable
# on documents whose provides are all versioned).


def _op(n, relop, v):
    if relop == "=":
        return n == v
    if relop == "!=":
        return n != v
    if relop == ">":
        return n > v
    if relop == "<":
        return n < v
    if relop == ">=":
        return n >= v
    return n <= v


def _naive_merged(packages, top=None):
    """Installed versions per name and feature.  With `top`, an unversioned
    provide stands for the explicit versions 1..top; without, the
    document must have versioned provides only."""
    merged = {}
    for it in packages:
        if not it.installed:
            continue
        merged.setdefault(it.name, set()).add(it.version)
        for pr in it.provides.items:
            if pr.constraint.is_top:
                assert top is not None, "oracle needs versioned provides"
                merged.setdefault(pr.name, set()).update(range(1, top + 1))
            else:
                merged.setdefault(pr.name, set()).add(pr.constraint.version)
    return merged


def _witness_top(*docs):
    """One more than every version a constraint of the documents names, so
    1..top holds a witness for every satisfiable constraint."""
    top = 1
    for d in docs:
        for it in d.packages:
            atoms = [a for clause in it.depends.clauses for a in clause]
            atoms += list(it.conflicts.items) + list(it.provides.items)
            for a in atoms:
                if not a.constraint.is_top:
                    top = max(top, a.constraint.version + 1)
    return top


def _naive_atom(merged, atom):
    versions = merged.get(atom.name, set())
    if atom.constraint.is_top:
        return bool(versions)
    return any(_op(n, atom.constraint.relop, atom.constraint.version) for n in versions)


def naive_consistent(doc):
    merged = _naive_merged(doc.packages)
    for it in doc.packages:
        if not it.installed:
            continue
        for clause in it.depends.clauses:
            if not any(_naive_atom(merged, a) for a in clause):
                return False
        others = [p for p in doc.packages if p.key != it.key]
        merged_wo = _naive_merged(others)
        for atom in it.conflicts.items:
            versions = merged_wo.get(atom.name, set())
            for n in versions:
                if atom.constraint.is_top or _op(
                    n, atom.constraint.relop, atom.constraint.version
                ):
                    return False
    return True


def naive_consistency_violations(doc):
    """(name, version, clause) of every consistency violation, installed
    stanzas in key order, depends before conflicts; unversioned provides
    are enumerated explicitly."""
    top = _witness_top(doc)
    merged = _naive_merged(doc.packages, top)
    out = []
    for it in sorted(doc.packages, key=lambda p: (p.name, p.version)):
        if not it.installed:
            continue
        for clause in it.depends.clauses:
            if not any(_naive_atom(merged, a) for a in clause):
                out.append((it.name, it.version, "depends"))
                break
        others = [p for p in doc.packages if p.key != it.key]
        merged_wo = _naive_merged(others, top)
        if any(_naive_atom(merged_wo, a) for a in it.conflicts.items):
            out.append((it.name, it.version, "conflicts"))
    return out


def naive_successor_violations(before, after):
    """(clause, name, version) of every successor violation, in the order
    the successor check reports them; a key names its first stanza."""

    def first(d, key):
        return next(p for p in d.packages if (p.name, p.version) == key)

    keys_before = {(p.name, p.version) for p in before.packages}
    keys_after = {(p.name, p.version) for p in after.packages}
    domain = sorted(keys_before ^ keys_after)
    if domain:
        return [("domain",) + key for key in domain]
    out = []
    for key in sorted(keys_before):
        b, a = first(before, key), first(after, key)
        if (b.keep, b.depends, b.conflicts, b.provides) != (
            a.keep, a.depends, a.conflicts, a.provides
        ):
            out.append(("metadata",) + key)
    merged = _naive_merged(after.packages, _witness_top(before, after))
    for it in sorted(before.packages, key=lambda p: (p.name, p.version)):
        if not it.installed or it.keep is None:
            continue
        kind = it.keep.chosen
        if kind == "version":
            held = any(p.installed and p.name == it.name and p.version == it.version
                       for p in after.packages)
        elif kind == "package":
            held = any(p.installed and p.name == it.name for p in after.packages)
        else:
            held = all(_naive_atom(merged, pr) for pr in it.provides.items)
        if not held:
            out.append(("keep", it.name, it.version))
    return out


def naive_request_violations(before, request, after):
    """(clause, name, version) of every install, remove and upgrade
    violation, in the order the request check reports them; unversioned
    provides are enumerated over a range that also covers the versions
    the request names."""
    atoms = request.install.items + request.remove.items + request.upgrade.items
    top = max([_witness_top(before, after)]
              + [a.constraint.version + 1 for a in atoms if not a.constraint.is_top])
    merged = _naive_merged(after.packages, top)
    out = []
    for atom in request.install.items:
        if not _naive_atom(merged, atom):
            out.append(("install", atom.name, None))
    for atom in request.remove.items:
        if _naive_atom(merged, atom):
            out.append(("remove", atom.name, None))
    for atom in request.upgrade.items:
        if not _naive_atom(merged, atom):
            out.append(("upgrade", atom.name, None))
        now = {p.version for p in after.packages if p.installed and p.name == atom.name}
        if len(now) != 1:
            out.append(("upgrade", atom.name, None))
            continue
        (n,) = now
        if any(p.installed and p.name == atom.name and p.version > n
               for p in before.packages):
            out.append(("upgrade", atom.name, n))
    return out


# ---------------------------------------------------------------------------
# Whole-universe scan oracle for the compiled masks: every atom is matched
# against every stanza, with no index.


def _satisfies(n, c):
    return c.is_top or _op(n, c.relop, c.version)


def scan_atom_mask(atom, stanzas, exclude=None):
    """Bits whose installation contributes a version of atom.name
    satisfying atom.constraint, through the package itself or a provide."""
    c = atom.constraint
    mask = 0
    for i, item in enumerate(stanzas):
        if i == exclude:
            continue
        hit = False
        if item.name == atom.name and _satisfies(item.version, c):
            hit = True
        else:
            for provide in item.provides.items:
                if provide.name != atom.name:
                    continue
                if provide.constraint.is_top:
                    # some version in 1..v+1 satisfies (relop, v) if any does
                    hit = c.is_top or any(
                        _satisfies(n, c) for n in range(1, c.version + 2)
                    )
                else:
                    hit = _satisfies(provide.constraint.version, c)
                if hit:
                    break
        if hit:
            mask |= 1 << i
    return mask


def scan_compile(doc, request):
    """The masks compile_problem derives, by whole-universe scans."""
    stanzas = sorted(doc.packages, key=lambda p: p.key)
    out = {"pinned": 0, "dep_clauses": [], "conflict_mask": [], "required": []}
    for i, item in enumerate(stanzas):
        out["dep_clauses"].append([
            _or(scan_atom_mask(atom, stanzas) for atom in clause)
            for clause in item.depends.clauses
        ])
        out["conflict_mask"].append(
            _or(scan_atom_mask(atom, stanzas, exclude=i)
                for atom in item.conflicts.items)
        )
        if item.installed and item.keep is not None:
            keep = item.keep.chosen
            if keep == "version":
                out["pinned"] |= 1 << i
            elif keep == "package":
                out["required"].append(
                    _or(1 << j for j, other in enumerate(stanzas)
                        if other.name == item.name)
                )
            else:
                out["required"].extend(
                    scan_atom_mask(provide, stanzas) for provide in item.provides.items
                )
    out["free_bits"] = [i for i in range(len(stanzas)) if not (out["pinned"] >> i) & 1]
    out["required"].extend(
        scan_atom_mask(atom, stanzas) for atom in request.install.items
    )
    out["forbidden"] = [scan_atom_mask(atom, stanzas) for atom in request.remove.items]
    out["upgrades"] = []
    for atom in request.upgrade.items:
        floor = max([it.version for it in stanzas
                     if it.installed and it.name == atom.name] or [0])
        out["upgrades"].append((
            scan_atom_mask(atom, stanzas),
            _or(1 << j for j, it in enumerate(stanzas) if it.name == atom.name),
            _or(1 << j for j, it in enumerate(stanzas)
                if it.name == atom.name and it.version >= floor),
        ))
    return out


def _or(masks):
    out = 0
    for mask in masks:
        out |= mask
    return out


# ---------------------------------------------------------------------------
# Full-enumeration solution oracle, built on semantics.satisfies_request,
# whose three parts are themselves checked against the naive oracles above:
# naive_consistency_violations, naive_successor_violations and
# naive_request_violations.


def enumerate_solutions(doc, request):
    """All installed-flag assignments satisfying the request, as
    (frozenset of installed keys) -> document."""
    from cudfkit.semantics import satisfies_request

    items = list(doc.packages)
    n = len(items)
    out = {}
    for mask in range(1 << n):
        packages = tuple(
            it.with_installed(bool((mask >> i) & 1)) for i, it in enumerate(items)
        )
        candidate = CudfDocument(packages=packages, request=request)
        if satisfies_request(doc, request, candidate).ok:
            installed = frozenset(it.key for it in candidate.packages if it.installed)
            out[installed] = candidate
    return out


# ---------------------------------------------------------------------------
# Exhaustive search oracle over a compiled problem: every assignment of the
# free bits, checked clause by clause, the cheapest kept with an explicit
# tie-break.


def mask_less(a, b):
    """Whether installed-set a precedes b in the tie-break order
    (lexicographic on the sorted (name, version) sequences; bit order is
    already sorted by key)."""
    d = a ^ b
    if d == 0:
        return False
    m = d & -d
    above = ~((m << 1) - 1)
    if a & m:
        return bool(b & above)
    return not (a & above)


def _mask_ok(mask, problem):
    for i in range(problem.n):
        if (mask >> i) & 1:
            if any(not mask & clause for clause in problem.dep_clauses[i]):
                return False
            if mask & problem.conflict_mask[i]:
                return False
    if any(not mask & req for req in problem.required):
        return False
    if any(mask & bad for bad in problem.forbidden):
        return False
    for clause, name_bits, allowed in problem.upgrades:
        chosen = mask & name_bits
        if not mask & clause or bin(chosen).count("1") != 1 or not chosen & allowed:
            return False
    return True


def exhaustive_search(problem):
    """(found, best_mask, best_cost, 2**k) by enumerating all 2**k
    assignments of the k free bits."""
    free = problem.free_bits
    found, best_mask, best_cost = False, 0, 0
    for sub in range(1 << len(free)):
        mask = problem.pinned
        for idx, bit in enumerate(free):
            if (sub >> idx) & 1:
                mask |= 1 << bit
        if not _mask_ok(mask, problem):
            continue
        cost = sum(problem.costs[i] for i in range(problem.n) if (mask >> i) & 1)
        if not found or cost < best_cost or (
            cost == best_cost and mask_less(mask, best_mask)
        ):
            found, best_mask, best_cost = True, mask, cost
    return found, best_mask, best_cost, 1 << len(free)


def scan_problem(doc, request, costs):
    """scan_compile's masks with the stanza count and the cost vector, the
    problem exhaustive_search reads, built with no call into the compiler."""
    stanzas = sorted(doc.packages, key=lambda p: p.key)
    return SimpleNamespace(n=len(stanzas), costs=[costs.get(p.key, 0) for p in stanzas],
                           **scan_compile(doc, request))


# ---------------------------------------------------------------------------
# Character-scanner oracle for the vpkg grammars: a token-at-a-time reading
# of the CUDF grammar, independent of the library's split-and-match parser.


class ScanReject(ValueError):
    """The scanner oracle's rejection of a lexical string."""


_SCAN_RELOPS = ("!=", ">=", "<=", "=", ">", "<")  # longest first
_NAME_START = "abcdefghijklmnopqrstuvwxyz"
_NAME_REST = _NAME_START + "0123456789.-"


class _Scan:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def spaces(self):
        while self.pos < len(self.text) and self.text[self.pos] == " ":
            self.pos += 1

    def at_end(self):
        self.spaces()
        return self.pos >= len(self.text)

    def take(self, ch):
        self.spaces()
        if self.text.startswith(ch, self.pos):
            self.pos += len(ch)
            return True
        return False

    def name(self):
        self.spaces()
        start = self.pos
        if start >= len(self.text) or self.text[start] not in _NAME_START:
            raise ScanReject("expected a package name")
        self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos] in _NAME_REST:
            self.pos += 1
        if self.pos - start < 2:
            raise ScanReject("package names have at least two characters")
        return self.text[start:self.pos]

    def number(self):
        self.spaces()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if self.pos == start:
            raise ScanReject("expected a version number")
        try:
            value = int(self.text[start:self.pos])
        except ValueError:  # longer than the interpreter converts
            raise ScanReject("too many digits") from None
        if value < 1:
            raise ScanReject("version must be positive")
        return value

    def atom(self):
        name = self.name()
        for op in _SCAN_RELOPS:
            if self.take(op):
                return VPkg(name, VersionConstraint(op, self.number()))
        return VPkg(name)

    def finish(self, value):
        if not self.at_end():
            raise ScanReject("trailing characters")
        return value


def scan_parse_value(type_tag, lexical):
    """Value of a vpkg, veqpkg, vpkglist, veqpkglist or vpkgformula string;
    raises ScanReject outside the type's lexical space."""
    sc = _Scan(lexical)
    if type_tag in ("vpkg", "veqpkg"):
        value = sc.finish(sc.atom())
        atoms = [value]
    elif type_tag in ("vpkglist", "veqpkglist"):
        atoms = []
        if not sc.at_end():
            atoms.append(sc.atom())
            while sc.take(","):
                atoms.append(sc.atom())
        value = sc.finish(VpkgList(tuple(atoms)))
    elif type_tag == "vpkgformula":
        if sc.at_end():
            raise ScanReject("the True formula has no lexical form")
        clauses = []
        while True:
            clause = [sc.atom()]
            while sc.take("|"):
                clause.append(sc.atom())
            clauses.append(tuple(clause))
            if not sc.take(","):
                break
        value = sc.finish(VpkgFormula(tuple(clauses)))
        atoms = []
    else:
        raise KeyError(type_tag)
    if type_tag.startswith("veq") and any(
        a.constraint.relop not in (None, "=") for a in atoms
    ):
        raise ScanReject("version constraint other than '='")
    return value


# ---------------------------------------------------------------------------
# Line-at-a-time splitter oracle: every line decoded on its own, byte
# offsets summed from the raw line lengths.


def split_oracle(data):
    """(stanzas, junk) of a CUDF byte string: stanzas as (kind, index,
    first line, (start, end), property lines, problem id), junk lines as
    (first line, (start, end)); byte ranges include the final newline."""
    stanzas, junk = [], []
    current = None
    offset = 0
    raw_lines = data.split(b"\n")
    for i, raw in enumerate(raw_lines):
        end = offset + len(raw) + (1 if i < len(raw_lines) - 1 else 0)
        line = raw.decode("utf-8")
        if line.endswith("\r"):
            line = line[:-1]
        if line.startswith("Package: ") or line.startswith("Problem: "):
            kind = "package" if line.startswith("Package: ") else "problem"
            current = [kind, len(stanzas), i + 1, [offset, end], [], ""]
            if kind == "package":
                current[4].append(line)
            else:
                current[5] = line[len("Problem: "):]
            stanzas.append(current)
        elif line.strip(" \t") == "":
            current = None
        elif current is None:
            junk.append((i + 1, (offset, end)))
        else:
            current[4].append(line)
            current[3][1] = end
        offset = end
    return ([(k, n, first, tuple(rng), lines, pid)
             for k, n, first, rng, lines, pid in stanzas], junk)


# ---------------------------------------------------------------------------
# Field-type oracle for validate_document: each core field checked through
# oracle_is_subtype_value, the string-dispatched subtype test, as the
# validator did before it read the fields directly.


def subtype_item_violations(item, registry):
    """The TypeError violations of one package item."""
    from cudfkit.model import KEEP_ENUM, RawValue, Violation

    out = []

    def bad(prop, value_type):
        out.append(Violation("TypeError", f"{prop} value outside {value_type}",
                             item.name, item.version))

    for prop, value, value_type in (
        ("Package", item.name, "pkgname"),
        ("Version", item.version, "posint"),
        ("Depends", item.depends, "vpkgformula"),
        ("Conflicts", item.conflicts, "vpkglist"),
        ("Provides", item.provides, "veqpkglist"),
        ("Installed", item.installed, "bool"),
    ):
        if not oracle_is_subtype_value(value, value_type):
            bad(prop, value_type)
    if item.keep is not None and not oracle_is_subtype_value(item.keep, KEEP_ENUM):
        bad("Keep", KEEP_ENUM)
    for prop, value in item.extra:
        schema = registry.get("package", prop) if registry else None
        if isinstance(value, RawValue):
            if schema:
                bad(prop, schema.value_type)
            continue
        if schema and not oracle_is_subtype_value(value, schema.value_type):
            bad(prop, schema.value_type)
        elif not _one_line_value(value):
            out.append(Violation("TypeError", f"{prop} value has no one-line lexical form",
                                 item.name, item.version))
    return out


def _one_line_value(value):
    """Whether a typed value has a lexical form with no line break: the
    True formula has none, nor has an int or atom version with more
    digits than str() writes; a string is its own text, and atoms,
    lists, enum symbols and numbers cannot hold a line break."""
    if isinstance(value, str):
        return "\n" not in value and "\r" not in value
    if isinstance(value, VpkgFormula):
        return bool(value.clauses)
    if not _writable(value.constraint.version if isinstance(value, VPkg) else value):
        return False
    return isinstance(value, (bool, int, EnumValue, VPkg, VpkgList))


def _writable(number):
    """Whether str() writes number, a non-int always."""
    try:
        str(number)
    except ValueError:  # more digits than the interpreter converts
        return False
    return True


# ---------------------------------------------------------------------------
# Whole-document oracle for validate_document: the validator as it was
# before it remembered checked names, one item at a time with every
# check redone for every occurrence.


def naive_validate(doc, registry=None):
    """Every violation of validate_document, in its order."""
    from cudfkit import types
    from cudfkit.model import (
        CORE_PACKAGE_SCHEMATA, KEEP_ENUM, KEEP_SYMBOLS, RawValue, Violation,
    )

    violations = []
    seen = set()
    for item in doc.packages:
        name, version = item.name, item.version

        def bad(prop, value_type):
            violations.append(Violation("TypeError", f"{prop} value outside {value_type}",
                                        name, version))

        if item.key in seen:
            shown = version if _writable(version) else "at a version with too many digits to write"
            violations.append(Violation("DuplicateKey", f"duplicate stanza for {name} {shown}",
                                        name, version))
        seen.add(item.key)
        if not oracle_is_subtype_value(name, "pkgname"):
            bad("Package", "pkgname")
        if not isinstance(version, int) or isinstance(version, bool) or version < 1:
            bad("Version", "posint")
        elif not _writable(version):
            violations.append(Violation("TypeError", "Version value has too many digits to write",
                                        name, version))
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
        if keep is not None and not (isinstance(keep, EnumValue)
                                     and keep.symbols == KEEP_SYMBOLS):
            bad("Keep", KEEP_ENUM)
        for prop, value in item.extra:
            if (prop in CORE_PACKAGE_SCHEMATA or prop == "Problem"
                    or not types.is_identifier(prop)):
                violations.append(Violation("PropertyName",
                                            f"{prop!r} cannot name an extra property",
                                            name, version))
            schema = registry.get("package", prop) if registry else None
            if isinstance(value, RawValue):
                if schema:  # the name reads back typed, never raw
                    bad(prop, schema.value_type)
                elif not oracle_is_subtype_value(value.text, "oneliner"):
                    bad(prop, "oneliner")
                continue
            if schema and not oracle_is_subtype_value(value, schema.value_type):
                bad(prop, schema.value_type)
            elif not _one_line_value(value):
                violations.append(Violation("TypeError",
                                            f"{prop} value has no one-line lexical form",
                                            name, version))
    if not oracle_is_subtype_value(doc.request.problem_id, "oneliner"):
        violations.append(Violation("TypeError", "Problem value outside oneliner"))
    return violations


# ---------------------------------------------------------------------------
# Writer oracle for serialize_cudf: the writer as it was before it wrote
# each stanza in one step, a loop over the optional core properties that
# compares each value with its schema default.


def oracle_serialize_cudf(doc):
    """The bytes serialize_cudf writes for a valid document."""
    from cudfkit import types
    from cudfkit.model import CORE_PACKAGE_SCHEMATA, CORE_PROBLEM_SCHEMATA, RawValue

    def line(name, value):
        return f"{name}: {types.serialize_value(value)}\n"

    def omitted(value, default):
        return value is None or value is default or value == default

    chunks = []
    for item in doc.packages:
        out = [f"Package: {item.name}\n", f"Version: {item.version}\n"]
        for name in ("Depends", "Conflicts", "Provides", "Installed", "Keep"):
            schema = CORE_PACKAGE_SCHEMATA[name]
            value = getattr(item, name.lower())
            if not omitted(value, schema.default if schema.has_default else None):
                out.append(line(name, value))
        for prop, value in item.extra:
            out.append(f"{prop}: {value.text}\n" if isinstance(value, RawValue)
                       else line(prop, value))
        chunks.append("".join(out))
    out = [f"Problem: {doc.request.problem_id}\n"]
    for name, schema in CORE_PROBLEM_SCHEMATA.items():
        value = getattr(doc.request, name.lower())
        if not omitted(value, schema.default):
            out.append(line(name, value))
    chunks.append("".join(out))
    return "\n".join(chunks).encode("utf-8")


# ---------------------------------------------------------------------------
# Dispatch oracles for parse_value and is_subtype_value: the chains of
# type-tag tests they walked before they found each type's parse function
# and member test in one table.  The parse oracle shares the library's
# atom and list helpers, so it checks the dispatch and the member tests.


def oracle_is_subtype_value(value, target):
    """Whether a value belongs to the value space of `target`, or the
    UnknownType error is_subtype_value raises."""
    from cudfkit.types import UnknownType, _enum_symbols

    if target == "bool":
        return isinstance(value, bool)
    if target in ("int", "nat", "posint"):
        if isinstance(value, bool) or not isinstance(value, int):
            return False
        if target == "nat":
            return value >= 0
        if target == "posint":
            return value >= 1
        return True
    if target in ("string", "oneliner", "pkgname"):
        if not isinstance(value, str):
            return False
        if target == "oneliner":
            return "\n" not in value and "\r" not in value
        if target == "pkgname":
            return re.fullmatch(r"[a-z][a-z0-9.-]+", value) is not None
        return True
    if target in ("vpkg", "veqpkg"):
        if not isinstance(value, VPkg):
            return False
        if target == "veqpkg":
            return value.constraint.relop in (None, "=")
        return True
    if target in ("vpkglist", "veqpkglist"):
        if not isinstance(value, VpkgList):
            return False
        if target == "veqpkglist":
            return all(atom.constraint.relop in (None, "=") for atom in value.items)
        return True
    if target == "vpkgformula":
        return isinstance(value, VpkgFormula)
    if target.startswith("enum("):
        return isinstance(value, EnumValue) and value.symbols == _enum_symbols(target)
    raise UnknownType(target)


def oracle_parse_value(type_tag, lexical):
    """The value parse_value returns, or the error it raises."""
    from cudfkit import types
    from cudfkit.types import LexicalError, UnknownType

    def kept(cls, set_lexical, text):
        value = types._new(cls)
        set_lexical(value, text)
        return value

    if type_tag == "bool":
        s = lexical.strip(" ")
        if s == "true":
            return True
        if s == "false":
            return False
        raise LexicalError("bool", 0, f"not a boolean: {lexical!r}")
    if type_tag in ("int", "nat", "posint"):
        s = lexical.strip(" ")
        if not re.fullmatch(r"[+-]?[0-9]+", s):
            raise LexicalError(type_tag, 0, f"not an integer: {lexical!r}")
        try:
            value = int(s)
        except ValueError:  # longer than the interpreter converts
            raise LexicalError(type_tag, 0, "too many digits") from None
        lower = {"int": None, "nat": 0, "posint": 1}[type_tag]
        if lower is not None and value < lower:
            raise LexicalError(type_tag, 0, f"{value} below the {type_tag} domain")
        return value
    if type_tag == "string":
        return lexical
    if type_tag == "oneliner":
        if "\n" in lexical or "\r" in lexical:
            raise LexicalError("oneliner", 0, "embedded newline")
        return lexical
    if type_tag == "pkgname":
        if not types._PKGNAME_RE.fullmatch(lexical):
            raise LexicalError("pkgname", 0, f"not a package name: {lexical!r}")
        return lexical
    if type_tag == "vpkg" or type_tag == "veqpkg":
        (atom,) = types._canonical_atoms([types._parse_atom(lexical, type_tag, 0)])
        if type_tag == "veqpkg" and not oracle_is_subtype_value(atom, "veqpkg"):
            raise LexicalError("veqpkg", 0, "version constraint other than '='")
        return atom
    if type_tag == "vpkglist" or type_tag == "veqpkglist":
        if "|" in lexical or not types._CANONICAL_RE.fullmatch(lexical):
            if not lexical.strip(" "):
                return types.EMPTY_LIST
            lexical = types._canonical_text(lexical, type_tag)
        lst = kept(VpkgList, types._set_list_lexical, lexical)
        if type_tag == "veqpkglist" and not oracle_is_subtype_value(lst, "veqpkglist"):
            raise LexicalError("veqpkglist", 0, "version constraint other than '='")
        return lst
    if type_tag == "vpkgformula":
        if not types._CANONICAL_RE.fullmatch(lexical):
            if not lexical.strip(" "):
                raise LexicalError("vpkgformula", 0,
                                   "empty formula (True has no lexical form)")
            lexical = types._canonical_text(lexical, "vpkgformula")
        return kept(VpkgFormula, types._set_formula_lexical, lexical)
    if type_tag.startswith("enum("):
        symbols = types._enum_symbols(type_tag)
        s = lexical.strip(" ")
        if s not in symbols:
            raise LexicalError(type_tag, 0, f"{s!r} not in {symbols}")
        return EnumValue(symbols, s)
    raise UnknownType(type_tag)


# ---------------------------------------------------------------------------
# Whole-reader oracle: split_oracle's stanzas, scan_parse_value's atoms and
# its own scalar grammar, property-name rule and defaults.  It shares no
# parsing code with the library, only the value classes it builds.


class OracleFatal(ValueError):
    """The oracle reader's document-level failure; `kind` is "encoding",
    "no problem" or "multiple problems"."""

    def __init__(self, kind):
        super().__init__(kind)
        self.kind = kind


class _Drop(ValueError):
    pass


_ORACLE_PACKAGE_TYPES = {
    "Package": "pkgname", "Version": "posint", "Depends": "vpkgformula",
    "Conflicts": "vpkglist", "Provides": "veqpkglist", "Installed": "bool",
    "Keep": "enum(version, package, feature)",
}
_ORACLE_PROBLEM_TYPES = {"Install": "vpkglist", "Remove": "vpkglist", "Upgrade": "vpkglist"}


def _oracle_int(text, lower):
    s = text.strip(" ")
    if not re.fullmatch(r"[+-]?[0-9]+", s):
        raise _Drop("not an integer")
    try:
        value = int(s)
    except ValueError:  # longer than the interpreter converts
        raise _Drop("too many digits") from None
    if lower is not None and value < lower:
        raise _Drop("below the domain")
    return value


def _oracle_value(value_type, text):
    if value_type == "bool":
        s = text.strip(" ")
        if s not in ("true", "false"):
            raise _Drop("not a boolean")
        return s == "true"
    if value_type in ("int", "nat", "posint"):
        return _oracle_int(text, {"int": None, "nat": 0, "posint": 1}[value_type])
    if value_type == "string":
        return text
    if value_type == "oneliner":
        if "\r" in text:
            raise _Drop("embedded newline")
        return text
    if value_type == "pkgname":
        if not re.fullmatch(r"[a-z][a-z0-9.-]+", text):
            raise _Drop("not a package name")
        return text
    if value_type.startswith("enum("):
        symbols = tuple(s.strip() for s in value_type[5:-1].split(",") if s.strip())
        s = text.strip(" ")
        if s not in symbols:
            raise _Drop("not in the enum")
        return EnumValue(symbols, s)
    try:
        return scan_parse_value(value_type, text)
    except ScanReject as exc:
        raise _Drop(str(exc)) from None


def oracle_parse_cudf(data, extras=None):
    """(document, recovered errors) of CUDF bytes, errors as (stanza index,
    first line, byte range, reason).  `extras` maps (item kind, property
    name) to (value type, default or None) for registered extra
    properties.  Raises OracleFatal."""
    from cudfkit.model import RawValue

    extras = extras or {}
    try:
        stanzas, junk = split_oracle(data)
    except UnicodeDecodeError:
        raise OracleFatal("encoding") from None
    errors = [(-1, line, rng, "content outside any stanza") for line, rng in junk]
    packages, requests = [], []
    for kind, index, first, rng, lines, problem_id in stanzas:
        core = _ORACLE_PACKAGE_TYPES if kind == "package" else _ORACLE_PROBLEM_TYPES
        try:
            fields = {}
            for line in lines:
                if ": " in line:
                    name, value = line.split(": ", 1)
                elif line.endswith(":"):
                    name, value = line[:-1], ""
                else:
                    raise _Drop("no separator")
                value_type = core.get(name)
                if value_type is None:
                    if not re.fullmatch(r"[a-zA-Z][a-zA-Z0-9-]*", name):
                        raise _Drop("bad property name")
                    value_type = extras.get((kind, name), (None,))[0]
                if name in fields:
                    raise _Drop("duplicate")
                if value_type is None and kind == "problem":
                    raise _Drop("unknown problem property")
                fields[name] = (RawValue(value) if value_type is None
                                else _oracle_value(value_type, value))
            if kind == "problem":
                requests.append(RequestItem(
                    problem_id, fields.get("Install", VpkgList()),
                    fields.get("Remove", VpkgList()), fields.get("Upgrade", VpkgList())))
                continue
            if "Package" not in fields or "Version" not in fields:
                raise _Drop("missing required property")
        except _Drop as exc:
            errors.append((index, first, rng, str(exc)))
            continue
        extra = {name: value for name, value in fields.items() if name not in core}
        for (item_kind, name), (_, default) in extras.items():
            if item_kind == "package" and default is not None:
                extra.setdefault(name, default)
        packages.append(PackageItem(
            name=fields["Package"], version=fields["Version"],
            depends=fields.get("Depends", VpkgFormula()),
            conflicts=fields.get("Conflicts", VpkgList()),
            provides=fields.get("Provides", VpkgList()),
            installed=fields.get("Installed", False),
            keep=fields.get("Keep"),
            extra=tuple(sorted(extra.items())),
        ))
    if not requests:
        raise OracleFatal("no problem")
    if len(requests) > 1:
        raise OracleFatal("multiple problems")
    return CudfDocument(packages=tuple(packages), request=requests[0]), errors
