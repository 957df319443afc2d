"""Solution-checking semantics for CUDF documents.

Consistency, the successor relation and the request each return a
verdict that lists one model.Violation per failed clause, named by its
kind.  The successor relation maps each (name, version) key of either
document to its first stanza, and compares the metadata of the two
first stanzas of a key only when they are different objects: a solution
shares every stanza whose Installed flag it keeps with its problem.

A FeatureIndex maps each package name and feature to the stanzas that
contribute a version of it: each stanza under its own name and version,
and under each of its provides, where an unversioned provide contributes
the symbolic set of every positive version (ALL) rather than an
enumeration.  ``satisfies_request`` builds one index over the solution's
installed stanzas and hands it to ``is_consistent`` and ``is_successor``
(for the keep obligations), which build their own when called alone; an
Upgrade adds one over the original installation.  Problem compilation
(``solver._compile``) reads one over all stanzas.  Each is built in one
pass over the stanzas, and the checks and the compiler answer every atom
through ``FeatureIndex.matches``.
"""

from __future__ import annotations

import operator

from .model import Violation


class _AllVersions:
    """Symbolic set of every posint; arises from unversioned provides."""

    def __repr__(self):
        return "ALL"


ALL = _AllVersions()


_RELOPS = {
    "=": operator.eq,
    "!=": operator.ne,
    ">": operator.gt,
    "<": operator.lt,
    ">=": operator.ge,
    "<=": operator.le,
}


def satisfies_constraint(n, c):
    if c.is_top:
        return True
    return _RELOPS[c.relop](n, c.version)


def constraint_satisfiable(c):
    """Whether any posint satisfies c; only (<, 1) has no witness."""
    return not (c.relop == "<" and c.version == 1)


# ---------------------------------------------------------------------------
# Name/feature index


class FeatureIndex:
    """Name and feature index over a sequence of stanzas, built in one pass.

    ``by_name`` maps a package name to the positions of its stanzas.
    ``providers`` maps a name or feature to (position, version) pairs: one
    for each stanza's own name and version, and one for each of its
    provides, with ALL for an unversioned provide.
    """

    __slots__ = ("stanzas", "by_name", "providers")

    def __init__(self, stanzas):
        self.stanzas = stanzas
        self.by_name = {}
        self.providers = {}
        for i, item in enumerate(stanzas):
            self.by_name.setdefault(item.name, []).append(i)
            self.providers.setdefault(item.name, []).append((i, item.version))
            for provide in item.provides.items:
                c = provide.constraint
                self.providers.setdefault(provide.name, []).append(
                    (i, ALL if c.is_top else c.version)
                )

    def matches(self, atom):
        """List of the positions of the stanzas contributing a version of
        atom.name that satisfies atom.constraint, once per contribution."""
        c = atom.constraint
        contributions = self.providers.get(atom.name, ())
        if c.is_top:
            return [i for i, _ in contributions]
        test, bound, any_version = _RELOPS[c.relop], c.version, constraint_satisfiable(c)
        return [i for i, v in contributions if (any_version if v is ALL else test(v, bound))]

    def provided(self, atom, exclude_key=None):
        """Whether a stanza not keyed exclude_key contributes to atom."""
        matches = self.matches(atom)
        if exclude_key is None:
            return bool(matches)
        stanzas = self.stanzas
        return any(stanzas[i].key != exclude_key for i in matches)

    def versions(self, name):
        """Versions of the stanzas named name."""
        return {self.stanzas[i].version for i in self.by_name.get(name, ())}


def _installed_index(doc):
    """FeatureIndex over the installed stanzas of doc, in key order."""
    return FeatureIndex(sorted((p for p in doc.packages if p.installed),
                               key=lambda p: p.key))


# ---------------------------------------------------------------------------
# Verdicts


class Verdict:
    __slots__ = ("violations",)

    def __init__(self):
        self.violations = []

    @property
    def ok(self):
        return not self.violations


# ---------------------------------------------------------------------------
# Consistency


def is_consistent(doc, index=None):
    """Every installed package has its dependencies satisfied and its
    conflicts disjoint from everything else installed (self-conflicts
    are ignored by excluding the contributions of the package's own key).
    index, when given, is the FeatureIndex over doc's installed stanzas."""
    if index is None:
        index = _installed_index(doc)
    verdict = Verdict()
    for item in index.stanzas:
        if not all(
            any(index.provided(atom) for atom in clause)
            for clause in item.depends.clauses
        ):
            verdict.violations.append(
                Violation("depends", "unsatisfied dependency formula",
                          item.name, item.version)
            )
        if any(index.provided(atom, exclude_key=item.key)
               for atom in item.conflicts.items):
            verdict.violations.append(
                Violation("conflicts", "conflict with another installed package",
                          item.name, item.version)
            )
    return verdict


# ---------------------------------------------------------------------------
# Successor relation


def _first_stanzas(doc):
    """(name, version) -> the first of doc's stanzas with that key."""
    return {p.key: p for p in reversed(doc.packages)}  # the first one is stored last


def _metadata(p):
    return (p.keep, p.depends, p.conflicts, p.provides)


def is_successor(before, after, index=None):
    """The domain is kept, each key's non-Installed properties are kept,
    and the keep obligations of before's installed stanzas hold in after.
    index, when given, is the FeatureIndex over after's installed stanzas."""
    verdict = Verdict()
    first_before, first_after = _first_stanzas(before), _first_stanzas(after)
    for key in sorted(first_before.keys() ^ first_after.keys()):
        side = "missing from" if key in first_before else "added by"
        verdict.violations.append(
            Violation("domain", f"{key} {side} the successor", *key)
        )
    if verdict.violations:
        return verdict

    changed = [key for key, p in first_before.items() if p is not first_after[key]
               and _metadata(p) != _metadata(first_after[key])]
    for key in sorted(changed):
        verdict.violations.append(Violation("metadata", "non-Installed property changed", *key))

    if index is None:
        index = _installed_index(after)
    kept = [p for p in before.packages if p.installed and p.keep is not None]
    for item in sorted(kept, key=lambda p: p.key):
        keep = item.keep.chosen
        if keep == "version" and item.version not in index.versions(item.name):
            verdict.violations.append(
                Violation("keep", "keep 'version not honored", item.name, item.version)
            )
        elif keep == "package" and item.name not in index.by_name:
            verdict.violations.append(
                Violation("keep", "keep 'package not honored", item.name, item.version)
            )
        elif keep == "feature" and not all(
            index.provided(provide) for provide in item.provides.items
        ):
            verdict.violations.append(
                Violation("keep", "keep 'feature not honored", item.name, item.version)
            )
    return verdict


# ---------------------------------------------------------------------------
# Request semantics


class RequestVerdict:
    __slots__ = ("successor", "consistency", "violations")

    def __init__(self, successor, consistency):
        self.successor = successor
        self.consistency = consistency
        self.violations = []

    @property
    def ok(self):
        return (
            self.successor.ok and self.consistency.ok and not self.violations
        )

    def failed_clauses(self):
        clauses = []
        if not self.successor.ok:
            clauses.append("successor")
        if not self.consistency.ok:
            clauses.append("consistency")
        clauses.extend(sorted({v.kind for v in self.violations}))
        return clauses


def satisfies_request(before, request, after):
    """The five request-semantics clauses between two documents, all read
    off one FeatureIndex over after's installed stanzas."""
    index = _installed_index(after)
    verdict = RequestVerdict(
        successor=is_successor(before, after, index),
        consistency=is_consistent(after, index),
    )
    for atom in request.install.items:
        if not index.provided(atom):
            verdict.violations.append(
                Violation("install", "install target not satisfied", atom.name)
            )
    for atom in request.remove.items:
        if index.provided(atom):
            verdict.violations.append(
                Violation("remove", "removed package still present", atom.name)
            )
    if request.upgrade.items:
        index_before = _installed_index(before)
    for atom in request.upgrade.items:
        if not index.provided(atom):
            verdict.violations.append(
                Violation("upgrade", "upgrade target not satisfied", atom.name)
            )
        after_versions = index.versions(atom.name)
        if len(after_versions) != 1:
            verdict.violations.append(
                Violation("upgrade", "upgraded package is not a singleton version",
                          atom.name)
            )
        else:
            (n,) = after_versions
            if any(n < m for m in index_before.versions(atom.name)):
                verdict.violations.append(
                    Violation("upgrade", "upgrade went to an older version",
                              atom.name, n)
                )
    return verdict
