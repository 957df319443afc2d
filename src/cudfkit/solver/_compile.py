"""Compile a document + request + costs into bitmask form for the search.

Stanzas are sorted by (name, version) and numbered; an installation
candidate is the bitmask of installed stanzas.  Every semantic clause is
reduced ahead of time to "mask must intersect M" or "mask must avoid M",
so the search only does mask arithmetic.  Masks are read off one
semantics.FeatureIndex, so compilation is linear in the stanza count.
"""

from __future__ import annotations

from ..semantics import FeatureIndex


class CompiledProblem:
    __slots__ = ("n", "keys", "costs", "pinned", "free_bits", "dep_clauses",
                 "conflict_mask", "required", "forbidden", "upgrades")

    def __init__(self, n, keys, costs, pinned, free_bits, dep_clauses, conflict_mask,
                 required, forbidden, upgrades):
        self.n = n
        self.keys = keys  # bit -> (name, version)
        self.costs = costs  # bit -> int
        self.pinned = pinned  # bits forced installed (keep 'version)
        self.free_bits = free_bits
        self.dep_clauses = dep_clauses  # bit -> list of masks, each must intersect when bit set
        self.conflict_mask = conflict_mask  # bit -> mask that must not intersect when bit set
        self.required = required  # masks that must always intersect (install, keep obligations)
        self.forbidden = forbidden  # masks that must never intersect (remove)
        self.upgrades = upgrades  # (clause, name_bits, allowed_bits)


def _bits(positions):
    """Mask with the given bit positions set."""
    mask = 0
    for i in positions:
        mask |= 1 << i
    return mask


def is_pinned(item):
    """Installed with keep 'version: the stanza stays installed."""
    return item.installed and item.keep is not None and item.keep.chosen == "version"


def compile_problem(doc, request, costs):
    stanzas = sorted(doc.packages, key=lambda p: p.key)
    index = FeatureIndex(stanzas)
    n = len(stanzas)
    keys = [item.key for item in stanzas]
    cost_vec = [costs.get(key, 0) for key in keys]

    dep_clauses = []
    conflict_mask = []
    pinned = 0
    free_bits = []
    required = []
    for i, item in enumerate(stanzas):
        dep_clauses.append([
            _bits(j for atom in clause for j in index.matches(atom))
            for clause in item.depends.clauses
        ])
        conflict_mask.append(_bits(
            j for atom in item.conflicts.items for j in index.matches(atom) if j != i
        ))
        if is_pinned(item):
            pinned |= 1 << i
            continue
        free_bits.append(i)
        if item.installed and item.keep is not None:
            keep = item.keep.chosen
            if keep == "package":
                required.append(_bits(index.by_name[item.name]))
            elif keep == "feature":
                for provide in item.provides.items:
                    required.append(_bits(index.matches(provide)))

    for atom in request.install.items:
        required.append(_bits(index.matches(atom)))

    forbidden = [_bits(index.matches(atom)) for atom in request.remove.items]

    upgrades = []
    for atom in request.upgrade.items:
        same_name = index.by_name.get(atom.name, [])
        floor = max(
            (stanzas[j].version for j in same_name if stanzas[j].installed),
            default=0,
        )
        allowed = _bits(j for j in same_name if stanzas[j].version >= floor)
        upgrades.append((_bits(index.matches(atom)), _bits(same_name), allowed))

    return CompiledProblem(
        n=n,
        keys=keys,
        costs=cost_vec,
        pinned=pinned,
        free_bits=free_bits,
        dep_clauses=dep_clauses,
        conflict_mask=conflict_mask,
        required=required,
        forbidden=forbidden,
        upgrades=upgrades,
    )
