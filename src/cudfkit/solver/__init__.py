"""Cost-based optimization over the request semantics.

Exact desk-scale solver: candidates are assignments of the Installed
flags over the existing domain (the successor relation forbids adding or
removing stanzas, so this space is complete).  The compiled problem is
searched depth-first by branch-and-bound with unit propagation.
"""

from __future__ import annotations

from .. import semantics
from ..criteria import CRITERIA, DEFAULT_BUDGET, SIZE_PROPERTIES, MissingSizeProperty
from ..model import CudfDocument, InvalidDocument, RawValue, validate_document
from ._compile import compile_problem, is_pinned
from . import _kernel_py

KERNEL = "branch-and-bound"


class SolveResult:
    __slots__ = ("status", "document", "cost", "explored")

    def __init__(self, status, document=None, cost=None, explored=0):
        self.status = status  # "solution" | "no_solution" | "budget_exceeded"
        self.document = document  # the solved CudfDocument, for "solution"
        self.cost = cost
        self.explored = explored


def installation_cost(doc, costs):
    """Sum of the per-(name, version) costs over installed packages."""
    return sum(costs.get(p.key, 0) for p in doc.packages if p.installed)


def _size_value(item, prop):
    value = item.extra_value(prop)
    if value is None or isinstance(value, RawValue):
        raise MissingSizeProperty(
            f"{prop} missing on {item.name} {item.version}; register its schema"
        )
    return value


def preset_costs(doc, request, criterion):
    """Cost assignment implementing one of the standard criteria."""
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}")
    costs = {}
    if criterion in SIZE_PROPERTIES:
        prop = SIZE_PROPERTIES[criterion]
        for item in doc.packages:
            size = _size_value(item, prop)
            if criterion == "download-size" and item.installed:
                size = 0  # already on disk, nothing to download
            costs[item.key] = size
    elif criterion == "prefer-latest":
        latest = {}
        for item in doc.packages:
            latest[item.name] = max(latest.get(item.name, 0), item.version)
        for item in doc.packages:
            costs[item.key] = 0 if item.version == latest[item.name] else 1
    elif criterion == "min-new":
        requested = list(request.install.items) + list(request.upgrade.items)
        for item in doc.packages:
            explicit = any(
                atom.name == item.name
                and semantics.satisfies_constraint(item.version, atom.constraint)
                for atom in requested
            )
            costs[item.key] = 0 if item.installed or explicit else 1
    elif criterion == "min-removed":
        for item in doc.packages:
            costs[item.key] = -1 if item.installed else 0
    return costs


def solve(doc, request, costs, budget=DEFAULT_BUDGET):
    """Minimum-cost successor satisfying the request, by branch-and-bound
    over Installed-flag assignments.

    A repeated (name, version) raises InvalidDocument: the solution
    sets Installed by key, so two stanzas of one key cannot take
    different flags.  keep 'version packages are pinned installed;
    everything else is free.  The budget bounds the 2**k candidate
    space of the k free stanzas and is checked, after the keys, before
    the problem is compiled.  Any returned solution is re-checked
    against the semantics engine and priced again, never trusted from
    the search.  Its stanzas are the compiled ones, in key order.  Ties
    break toward the lexicographically smallest sorted installed set;
    explored counts search nodes.
    """
    if len({p.key for p in doc.packages}) < len(doc.packages):
        raise InvalidDocument(
            [v for v in validate_document(doc) if v.kind == "DuplicateKey"])
    k = sum(1 for p in doc.packages if not is_pinned(p))
    if k >= budget.bit_length() or (1 << k) > budget:
        return SolveResult(status="budget_exceeded", explored=0)
    problem = compile_problem(doc, request, costs)
    found, best_mask, best_cost, explored = _kernel_py.search(problem)

    if not found:
        return SolveResult(status="no_solution", explored=explored)

    # bit i is stanzas[i]; with_installed shares each stanza it keeps
    solution = CudfDocument(packages=tuple(
        p.with_installed(bool((best_mask >> i) & 1)) for i, p in enumerate(problem.stanzas)
    ), request=request)
    verdict = semantics.satisfies_request(doc, request, solution)
    if not verdict.ok:
        raise AssertionError(
            f"search produced an invalid candidate: {verdict.failed_clauses()}"
        )
    cost = installation_cost(solution, costs)
    if cost != best_cost:
        raise AssertionError(f"search reported cost {best_cost} for a candidate of cost {cost}")
    return SolveResult(
        status="solution", document=solution, cost=best_cost, explored=explored
    )
