"""Two-phase depth-first branch-and-bound over compiled problems.

A search node decides some free bits: `ones` holds the bits set, `zeros`
the bits cleared.  Unit propagation over the compiled store (dependency
clauses, exclusions, clauses and zeros, read as they are) extends both
to a fixpoint or shows that no candidate extends the node; a node whose
cost lower bound reaches the incumbent is cut, and every undecided bit
whose own positive cost would take the bound there is cleared.  The
first phase branches toward cheap candidates to find the optimum cost;
the second walks candidates in tie-break order under the optimum plus
one and stops at its first leaf.  Python integers serve as bitmasks, so
any stanza count works, and an explicit stack keeps deep searches off
the interpreter's call stack.
"""

from __future__ import annotations

from bisect import bisect_left


def _bit_indices(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def search(problem):
    """Minimum-cost candidate of a compiled problem.

    Returns (found, best_mask, best_cost, explored), where explored counts
    the search nodes of both phases.  Ties go to the candidate whose
    sorted installed set is lexicographically smallest: the second phase
    branches on the lowest undecided bit, include first, and tries the
    leaf that sets no further bit before both when no set bit lies above
    the branch bit, so it meets candidates in exactly that order and its
    first leaf under the optimum plus one is the answer.
    """
    n = problem.n
    costs = problem.costs
    neg = [min(c, 0) for c in costs]
    neg_bits = sum(1 << i for i, c in enumerate(neg) if c)
    deps = problem.dep_clauses

    # heavy[k]: the free bits costing at least steps[k], the k-th smallest
    # positive free cost; heavy[-1] is empty.  Only free bits, so that
    # the table stays small when most stanzas are pinned.
    priced = [i for i in problem.free_bits if costs[i] > 0]
    steps = sorted({costs[i] for i in priced})
    heavy = [0] * (len(steps) + 1)
    for i in priced:
        heavy[bisect_left(steps, costs[i])] |= 1 << i
    for k in range(len(steps) - 1, -1, -1):
        heavy[k] |= heavy[k + 1]

    excl = problem.exclusions

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
    left = sum(neg[i] for i in _bit_indices(full & ~problem.zeros))
    # Both phases start from the propagated root, so the clauses of the
    # pinned bits are applied once.
    root = propagate(problem.pinned, problem.zeros, problem.clauses, 0, left, problem.pinned)
    if root is None:
        return False, 0, 0, 1
    root += (0,)

    def descend(bound, in_order):
        """(best_mask, best_cost, nodes) of the cheapest leaf costing less
        than bound, best_mask None when there is none.  in_order walks
        the tie-break order and returns the first such leaf; otherwise
        each branch tries the cheaper side first."""
        best_mask = None
        explored = 0
        stack = [root]
        while stack:
            explored += 1
            node = propagate(*stack.pop())
            if node is None:
                continue
            ones, zeros, clauses, cost, left = node
            slack = bound - cost - left
            if slack <= 0:
                continue
            # Installing any of these would take the bound to the incumbent.
            fixed = heavy[bisect_left(steps, slack)] & ~(ones | zeros)
            if fixed:
                node = propagate(ones, zeros | fixed, clauses, cost, left, 0)
                if node is None:
                    continue
                ones, zeros, clauses, cost, left = node
                if cost + left >= bound:
                    continue
            undecided = full & ~(ones | zeros)
            if not undecided:
                best_mask, bound = ones, cost
                if in_order:
                    break
                continue
            low = undecided & -undecided
            i = low.bit_length() - 1
            include = (ones | low, zeros, clauses, cost, left, low)
            exclude = (ones, zeros | low, clauses, cost, left - neg[i], 0)
            if not in_order:
                if costs[i] < 0:
                    stack += [exclude, include]
                else:
                    stack += [include, exclude]
            elif ones < low:
                # No set bit above the branch bit: the leaf clearing every
                # undecided bit precedes the whole subtree, and the exclude
                # branch keeps only candidates that set some bit above it.
                rest = undecided ^ low
                if rest:
                    stack.append((ones, zeros | low, clauses + [rest], cost,
                                  left - neg[i], 0))
                stack.append(include)
                stack.append((ones, zeros | undecided, clauses, cost, 0, 0))
            else:
                stack += [exclude, include]
        return best_mask, bound, explored

    # Phase 1: the optimum cost.  Phase 2: the first candidate at it.
    best_mask, best_cost, explored = descend(float("inf"), False)
    if best_mask is None:
        return False, 0, 0, explored
    best_mask, best_cost, more = descend(best_cost + 1, True)
    return True, best_mask, best_cost, explored + more
