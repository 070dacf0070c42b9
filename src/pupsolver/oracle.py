"""Exhaustive decision oracles for desk-scale cross-checking.

Deliberately independent of the solver: the enumeration below walks elements
in declaration order over immutable state copies, with no breadth-first
ordering, no undo journal and no heuristics beyond first-fresh-unit symmetry
breaking.  Partner connections are added eagerly because a placement forces
a unique set of them; dropping surplus partner edges never invalidates a
solution, so searching only forced connections is complete.
"""

from __future__ import annotations

from .core import BinPackingInstance, Instance


class SizeGuardError(ValueError):
    """Instance too large for exhaustive enumeration."""


def oracle_decide(inst: Instance, max_units: int, *, max_elements: int = 12) -> bool:
    """True iff inst is satisfiable with at most max_units units.

    Guarded: refuses instances with more than max_elements elements.
    """
    n = len(inst.elements)
    if n > max_elements:
        raise SizeGuardError(f"{n} elements exceeds the enumeration guard of {max_elements}")
    if max_units < 1:
        raise ValueError("max_units must be >= 1")

    idx = inst.index
    is_ind = [k < len(inst.indicators) for k in range(n)]
    # from the edge list, not the instance's adjacency: no view shared with the solver
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for a, b in inst.edges:
        neighbors[idx[a]].append(idx[b])
        neighbors[idx[b]].append(idx[a])
    ucap, iucap = inst.ucap, inst.iucap

    # a unit is (indicator count, sensor count, frozenset of partner unit positions)
    def placed_ok(e: int, u: int, units: tuple, where: tuple):
        ic, sc, ps = units[u]
        if is_ind[e]:
            if ic >= ucap:
                return None
            ic += 1
        else:
            if sc >= ucap:
                return None
            sc += 1
        forced = set()
        for nb in neighbors[e]:
            w = where[nb]
            if w >= 0 and w != u and w not in ps:
                forced.add(w)
        if len(ps) + len(forced) > iucap:
            return None
        for w in forced:
            if len(units[w][2]) >= iucap:
                return None
        new_units = list(units)
        new_units[u] = (ic, sc, ps | forced)
        for w in forced:
            wic, wsc, wps = new_units[w]
            new_units[w] = (wic, wsc, wps | {u})
        return tuple(new_units)

    def search(k: int, units: tuple, where: tuple) -> bool:
        if k == n:
            return True
        for u in range(len(units)):
            nxt = placed_ok(k, u, units, where)
            if nxt is not None and search(k + 1, nxt, where[:k] + (u,) + where[k + 1:]):
                return True
        if len(units) < max_units:
            nxt = placed_ok(k, len(units), units + ((0, 0, frozenset()),), where)
            if nxt is not None and search(k + 1, nxt, where[:k] + (len(units),) + where[k + 1:]):
                return True
        return False

    return search(0, (), (-1,) * n)


def oracle_min_units(inst: Instance, *, max_elements: int = 12) -> int | None:
    """Least unit count for which inst is satisfiable; None when unsatisfiable.

    An instance with no elements needs no units at all and yields 0.
    """
    n = len(inst.elements)
    if n == 0:
        return 0
    for k in range(1, n + 1):
        if oracle_decide(inst, k, max_elements=max_elements):
            return k
    return None


def binpack_decide(b: BinPackingInstance, *, max_items: int = 10) -> bool:
    """True iff the items fit into at most b.bins bins of size b.bin_size.

    Exhaustive with first-empty-bin symmetry breaking; guarded by max_items.
    """
    if len(b.items) > max_items:
        raise SizeGuardError(f"{len(b.items)} items exceeds the enumeration guard of {max_items}")
    loads = [0] * b.bins

    def fit(j: int) -> bool:
        if j == len(b.items):
            return True
        size = b.items[j]
        tried_empty = False
        for i in range(len(loads)):
            if loads[i] == 0:
                if tried_empty:
                    continue
                tried_empty = True
            if loads[i] + size <= b.bin_size:
                loads[i] += size
                if fit(j + 1):
                    return True
                loads[i] -= size
        return False

    return fit(0)
