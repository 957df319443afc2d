"""Depth-first branch-and-bound over compiled problems.

A search node decides some free bits: `ones` holds the bits set, `zeros`
the bits cleared.  Unit propagation over the compiled masks extends both
to a fixpoint or shows that no candidate extends the node; a node whose
cost lower bound cannot beat the best candidate found so far is cut.
Python integers serve as bitmasks, so any stanza count works, and an
explicit stack keeps deep searches off the interpreter's call stack.
"""

from __future__ import annotations


def _bit_indices(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def search(problem):
    """Minimum-cost candidate of a compiled problem.

    Returns (found, best_mask, best_cost, explored), where explored counts
    search nodes.  Ties go to the candidate whose sorted installed set is
    lexicographically smallest: branching on the lowest undecided bit,
    include first, and trying the leaf that sets no further bit before
    both when no set bit lies above the branch bit, meets candidates in
    exactly that order, so only a strictly cheaper one replaces the best.
    """
    n = problem.n
    costs = problem.costs
    neg = [min(c, 0) for c in costs]
    neg_bits = sum(1 << i for i, c in enumerate(neg) if c)
    deps = problem.dep_clauses

    # excl[i]: bits that cannot be installed together with bit i.  Conflicts
    # are made symmetric so that either side of a pair clears the other.
    excl = list(problem.conflict_mask)
    for i, mask in enumerate(problem.conflict_mask):
        for j in _bit_indices(mask):
            excl[j] |= 1 << i
    clauses = list(problem.required)
    zeros = 0
    for bad in problem.forbidden:
        zeros |= bad
    for clause, name_bits, allowed in problem.upgrades:
        zeros |= name_bits & ~allowed
        clauses += [clause, name_bits]  # at least one version of the name
        for i in _bit_indices(name_bits):
            excl[i] |= name_bits & ~(1 << i)  # at most one

    def propagate(ones, zeros, clauses, cost, left, todo):
        """Fixpoint of the node; None when no candidate extends it.

        todo holds the bits of ones whose clauses and exclusions are not
        applied yet; cost is that of the applied bits, and left the sum of
        the negative costs of the bits in neither ones nor zeros."""
        if ones & zeros:
            return None
        while True:
            while todo:
                low = todo & -todo
                todo ^= low
                i = low.bit_length() - 1
                if excl[i] & ones:
                    return None
                cleared = excl[i] & ~zeros
                zeros |= cleared
                cost += costs[i]
                left -= neg[i]
                for j in _bit_indices(cleared & neg_bits):
                    left -= neg[j]
                if deps[i]:
                    clauses = clauses + deps[i]
            still_open = []
            for clause in clauses:
                if clause & ones:
                    continue
                clause &= ~zeros
                if not clause:
                    return None
                if clause & (clause - 1):
                    still_open.append(clause)
                else:
                    todo |= clause
            clauses = still_open
            if not todo:
                return ones, zeros, clauses, cost, left
            ones |= todo

    full = (1 << n) - 1
    left = sum(neg[i] for i in _bit_indices(full & ~zeros))
    stack = [(problem.pinned, zeros, clauses, 0, left, problem.pinned)]
    found = False
    best_mask = best_cost = explored = 0
    while stack:
        explored += 1
        node = propagate(*stack.pop())
        if node is None:
            continue
        ones, zeros, clauses, cost, left = node
        if found and cost + left >= best_cost:
            continue
        undecided = full & ~(ones | zeros)
        if not undecided:
            found, best_mask, best_cost = True, ones, cost
            continue
        low = undecided & -undecided
        left_off = left - neg[low.bit_length() - 1]
        include = (ones | low, zeros, clauses, cost, left, low)
        if ones < low:
            # No set bit above the branch bit: the leaf clearing every
            # undecided bit precedes the whole subtree, and the exclude
            # branch keeps only candidates that set some bit above it.
            rest = undecided ^ low
            if rest:
                stack.append((ones, zeros | low, clauses + [rest], cost, left_off, 0))
            stack.append(include)
            stack.append((ones, zeros | undecided, clauses, cost, 0, 0))
        else:
            stack.append((ones, zeros | low, clauses, cost, left_off, 0))
            stack.append(include)
    return found, best_mask, best_cost, explored
