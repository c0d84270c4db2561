"""Reference implementations that only the tests call.

``concatenate`` is the splice of the rescan engine: it finds the glued
labels by label equality, cancels by rescanning from the front after
every removal, and stores every intermediate list in the pool.  ``replay``
re-runs a merge history from its initial lists.  Both check the indexed
engine of ``origami_forge.hss`` from outside.
"""

from origami_forge.hss import NoCommonLabel, format_label


def concatenate(pool, lid, mid, at, history=None):
    """Splice two pool lists at the first occurrence of label `at` in each:
    [a.., at, b..] + [c.., at, d..] -> [a.., d.., c.., b..], then cancel
    adjacent equal labels (with wrap-around).  Returns the result's lid."""
    L, M = pool.lists[lid], pool.lists[mid]
    try:
        i = next(k for k, s in enumerate(L.sides) if pool.label_of(s) == at)
        j = next(k for k, s in enumerate(M.sides) if pool.label_of(s) == at)
    except StopIteration:
        raise NoCommonLabel(f"label {format_label(at)} missing") from None
    a, b = L.sides[:i], L.sides[i + 1:]
    c, d = M.sides[:j], M.sides[j + 1:]
    rid = pool.new_list(a + d + c + b, True, "m", 0)
    if history is not None:
        history.events.append(("merge", rid, lid, mid, L.sides[i], M.sides[j]))
    return cancel_all(pool, rid, history)


def cancel_all(pool, lid, history):
    """Remove the first adjacent pair of equal labels, else the wrap-around
    pair, storing each intermediate list, until neither exists."""
    while True:
        sides = pool.lists[lid].sides
        n = len(sides)
        hit = None
        for k in range(n - 1):
            if pool.label_of(sides[k]) == pool.label_of(sides[k + 1]):
                hit = (k, k + 1)
                break
        if hit is None and n >= 2 and pool.label_of(sides[-1]) == pool.label_of(sides[0]):
            hit = (n - 1, 0)
        if hit is None:
            return lid
        k1, k2 = hit
        removed = {sides[k1], sides[k2]}
        rid = pool.new_list([s for s in sides if s not in removed], True, "m", 0)
        if history is not None:
            history.events.append(("cancel", rid, lid, sides[k1], sides[k2]))
        lid = rid


def replay(pool, history):
    """Re-run the logged events from the initial lists; returns the
    reconstructed final side sequence."""
    state = {lid: list(pool.lists[lid].sides) for lid in history.initial}
    for ev in history.events:
        if ev[0] == "merge":
            _, rid, lid, mid, gl, gm = ev
            L, M = state.pop(lid), state.pop(mid)
            i, j = L.index(gl), M.index(gm)
            state[rid] = L[:i] + M[j + 1:] + M[:j] + L[i + 1:]
        else:
            _, rid, pid, s1, s2 = ev
            state[rid] = [s for s in state.pop(pid) if s not in (s1, s2)]
    if set(state) != {history.final}:
        raise AssertionError(f"history leaves lists {sorted(state)}")
    return tuple(state[history.final])
