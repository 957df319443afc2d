"""Compile a document + request + costs into the constraint store that the
search reads as it is.

Stanzas are sorted by (name, version) and numbered; an installation
candidate is the bitmask of installed stanzas, bit i standing for the
problem's stanzas[i].  Conflicts become symmetric exclusions; keep,
install and upgrade obligations become clauses; removes become zeros.
An upgrade also makes the versions of its name exclude each other and
zeros those below the highest installed one.  Masks are read off one
semantics.FeatureIndex, so compilation is linear in the stanza count.
"""

from __future__ import annotations

from ..semantics import FeatureIndex


class CompiledProblem:
    __slots__ = ("n", "stanzas", "costs", "pinned", "free_bits", "dep_clauses",
                 "exclusions", "clauses", "zeros")

    def __init__(self, n, stanzas, costs, pinned, free_bits, dep_clauses, exclusions,
                 clauses, zeros):
        self.n = n
        self.stanzas = stanzas  # bit -> PackageItem, in (name, version) order
        self.costs = costs  # bit -> int
        self.pinned = pinned  # bits forced installed (keep 'version)
        self.free_bits = free_bits
        self.dep_clauses = dep_clauses  # bit -> list of masks, each must intersect when bit set
        self.exclusions = exclusions  # bit -> mask never set with it; symmetric, self-free
        self.clauses = clauses  # masks that must always intersect (keep, install, upgrade)
        self.zeros = zeros  # mask never set (remove, below an upgrade's floor)


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
    cost_vec = [costs.get(item.key, 0) for item in stanzas]

    dep_clauses = []
    exclusions = [0] * n
    pinned = 0
    free_bits = []
    clauses = []
    for i, item in enumerate(stanzas):
        dep_clauses.append([
            _bits(j for atom in clause for j in index.matches(atom))
            for clause in item.depends.clauses
        ])
        for atom in item.conflicts.items:
            for j in index.matches(atom):
                if j != i:
                    exclusions[i] |= 1 << j
                    exclusions[j] |= 1 << i
        if is_pinned(item):
            pinned |= 1 << i
            continue
        free_bits.append(i)
        if item.installed and item.keep is not None:
            keep = item.keep.chosen
            if keep == "package":
                clauses.append(_bits(index.by_name[item.name]))
            elif keep == "feature":
                for provide in item.provides.items:
                    clauses.append(_bits(index.matches(provide)))

    for atom in request.install.items:
        clauses.append(_bits(index.matches(atom)))

    zeros = _bits(j for atom in request.remove.items for j in index.matches(atom))

    for atom in request.upgrade.items:
        same_name = index.by_name.get(atom.name, [])
        name_bits = _bits(same_name)
        # at least one version of the name, and at most one
        clauses += [_bits(index.matches(atom)), name_bits]
        for j in same_name:
            exclusions[j] |= name_bits & ~(1 << j)
        floor = max(
            (stanzas[j].version for j in same_name if stanzas[j].installed),
            default=0,
        )
        zeros |= _bits(j for j in same_name if stanzas[j].version < floor)

    return CompiledProblem(
        n=n,
        stanzas=stanzas,
        costs=cost_vec,
        pinned=pinned,
        free_bits=free_bits,
        dep_clauses=dep_clauses,
        exclusions=exclusions,
        clauses=clauses,
        zeros=zeros,
    )
