"""Independent reference answers for the benchmark.

This module shares no code with cudfkit.  It transcribes the CUDF
request semantics and the cost criteria directly against plain data:

    stanza  = {"name", "version", "depends", "conflicts", "provides",
               "installed", "keep", "extra"}
    atom    = [name, relop or None, version or None]
    depends = list of clauses, each a list of atoms (CNF)
    request = {"id", "install", "remove", "upgrade"}, each a list of atoms

A stanza "contributes" a version of a name when it is that package, or
when it provides that name as a feature; an unversioned provide
contributes every positive version.  Solutions are sets of stanza
indices that end up installed.
"""

from __future__ import annotations

CRITERIA = ("installed-size", "download-size", "prefer-latest", "min-new", "min-removed")


def holds(n, relop, v):
    """Whether version n satisfies the constraint (relop, v)."""
    if relop is None:
        return True
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
    if relop == "<=":
        return n <= v
    raise ValueError(f"bad relop {relop!r}")


def satisfiable(relop, v):
    """Whether any positive version satisfies (relop, v)."""
    return not (relop == "<" and v == 1)


class Universe:
    """A list of stanzas with name and feature indexes."""

    def __init__(self, stanzas):
        self.stanzas = stanzas
        self.by_name = {}  # name -> [(index, version)]
        self.by_feature = {}  # feature -> [(index, version or None)]
        for i, st in enumerate(stanzas):
            self.by_name.setdefault(st["name"], []).append((i, st["version"]))
            for feature, _, version in st["provides"]:
                self.by_feature.setdefault(feature, []).append((i, version))

    def providers(self, atom):
        """Indices of the stanzas whose installation satisfies atom."""
        name, relop, v = atom
        out = [i for i, n in self.by_name.get(name, ()) if holds(n, relop, v)]
        for i, n in self.by_feature.get(name, ()):
            if relop is None or (satisfiable(relop, v) if n is None else holds(n, relop, v)):
                out.append(i)
        return out

    def before_versions(self, name):
        return [v for i, v in self.by_name.get(name, ()) if self.stanzas[i]["installed"]]


def violations(universe, request, after):
    """Every clause the installed set `after` breaks, as a set of
    (clause, package, version) with clause one of keep, depends,
    conflicts, install, remove, upgrade.  The version is the stanza's
    for keep/depends/conflicts and None for request atoms."""
    st = universe.stanzas

    def hit(atom, skip=None):
        return any(i in after and i != skip for i in universe.providers(atom))

    out = set()
    for i, s in enumerate(st):
        if not s["installed"] or s["keep"] is None:
            continue
        if s["keep"] == "version":
            kept = i in after
        elif s["keep"] == "package":
            kept = any(j in after for j, _ in universe.by_name[s["name"]])
        else:
            kept = all(hit(p) for p in s["provides"])
        if not kept:
            out.add(("keep", s["name"], s["version"]))
    for i in after:
        s = st[i]
        if not all(any(hit(a) for a in clause) for clause in s["depends"]):
            out.add(("depends", s["name"], s["version"]))
        # A package never conflicts with itself: only other stanzas count.
        if any(hit(a, skip=i) for a in s["conflicts"]):
            out.add(("conflicts", s["name"], s["version"]))
    for a in request["install"]:
        if not hit(a):
            out.add(("install", a[0], None))
    for a in request["remove"]:
        if hit(a):
            out.add(("remove", a[0], None))
    for a in request["upgrade"]:
        now = {v for j, v in universe.by_name.get(a[0], ()) if j in after}
        floor = max(universe.before_versions(a[0]), default=0)
        if not hit(a) or len(now) != 1 or min(now) < floor:
            out.add(("upgrade", a[0], None))
    return out


def costs(universe, request, mode):
    """Per-stanza cost list for a criterion name, or for
    ("property", name): that int extra property, 0 where absent."""
    st = universe.stanzas
    if isinstance(mode, (tuple, list)):
        return [int(s["extra"].get(mode[1], 0)) for s in st]
    if mode == "installed-size":
        return [int(s["extra"]["Installed-Size"]) for s in st]
    if mode == "download-size":
        return [0 if s["installed"] else int(s["extra"]["Download-Size"]) for s in st]
    if mode == "prefer-latest":
        latest = {}
        for s in st:
            latest[s["name"]] = max(latest.get(s["name"], 0), s["version"])
        return [0 if s["version"] == latest[s["name"]] else 1 for s in st]
    if mode == "min-new":
        wanted = list(request["install"]) + list(request["upgrade"])

        def explicit(s):
            return any(a[0] == s["name"] and holds(s["version"], a[1], a[2]) for a in wanted)

        return [0 if s["installed"] or explicit(s) else 1 for s in st]
    if mode == "min-removed":
        return [-1 if s["installed"] else 0 for s in st]
    raise ValueError(f"unknown cost mode {mode!r}")


def parse_solution_text(data):
    """(name, version) pairs of a solution file written as
    Package/Version/Installed: true stanzas; ValueError on anything else."""
    keys = []
    text = data.decode("utf-8")
    for chunk in text.split("\n\n"):
        lines = [line for line in chunk.split("\n") if line]
        if not lines:
            continue
        if (
            len(lines) != 3
            or not lines[0].startswith("Package: ")
            or not lines[1].startswith("Version: ")
            or lines[2] != "Installed: true"
        ):
            raise ValueError(f"malformed solution stanza {chunk!r}")
        keys.append((lines[0][len("Package: "):], int(lines[1][len("Version: "):])))
    return keys
