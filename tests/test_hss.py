"""The cut-system algorithm: half-cylinder graph, labeled-list merging,
separating pairs, backtracking, curve emission, and list splitting."""

import json
import os
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from origami_forge.freegroup import Word, is_conjugate_horizontal
from origami_forge.homology import edge_cycle, f2_independent, h1_model
from origami_forge.hss import (
    ChainPair,
    Disconnected,
    InconsistentChain,
    MergeHistory,
    NoCommonLabel,
    NoPairFound,
    Pool,
    Sentinel,
    SLabel,
    _exponent,
    _separating_pair,
    _transversal,
    backtrack,
    dual_curves,
    emit_curve,
    find_hss,
    find_hss_detailed,
    init_lists,
    merge_all,
    step1,
    step1_cuts,
    step1_graph,
    step3_update,
)
from origami_forge.origami import (
    OrigamiCurve,
    cylinders,
    genus,
    is_closed,
    l_origami,
    o14,
    random_origami,
    wollmilchsau,
    x_origami,
)

from oracles import (
    SectionPool,
    concatenate,
    find_separating_pair,
    format_label,
    pool_labels,
    replay,
    replay_backtrack,
    side_half,
)


def shown(pool, lid):
    return [format_label(l) for l in pool_labels(pool, lid)]


def p_labels(pool, history):
    """The labels of the round's final list P, which its history holds."""
    return [pool.label_at[l] for l in history.labs]


# ---------------------------------------------------------------------------
# reference engine: the stage-2 rescan implementation the indexed engine
# replaced, kept as the oracle of the differential tests; its splice is
# `oracles.concatenate` and its backtracking `oracles.replay_backtrack`
# ---------------------------------------------------------------------------


def _rescan_key(label):
    if isinstance(label, SLabel):
        return (label.square, label.marks)
    return (label, ())


def _rescan_is_square(label):
    return not isinstance(label, Sentinel)


def rescan_merge_all(pool):
    """Each round rebuilds the label list of every remaining pool list and
    takes the first one sharing a label with the accumulator."""
    remaining = list(pool.pool_order)
    initial = list(remaining)
    log = SimpleNamespace(events=[])  # what `concatenate` appends to
    acc = remaining.pop(0)
    while remaining:
        acc_labels = {l for l in pool_labels(pool, acc)
                      if _rescan_is_square(l)}
        chosen = None
        for idx, mid in enumerate(remaining):
            m_order = [l for l in pool_labels(pool, mid)
                       if _rescan_is_square(l)]
            common = [l for l in m_order if l in acc_labels]
            if common:
                unprimed = [l for l in common if not l.marks]
                chosen = (idx, mid, unprimed[0] if unprimed else common[0])
                break
        if chosen is None:
            raise Disconnected("pool does not splice to a single list")
        idx, mid, at = chosen
        remaining.pop(idx)
        acc = concatenate(pool, acc, mid, at, log)
    final = pool.lists[acc]
    return acc, MergeHistory(initial, log.events, acc, {}, list(final.sides),
                             list(final.labs), [])


def rescan_find_separating_pair(labels):
    squares = [l for l in labels if _rescan_is_square(l)]
    occ = {}
    for k, l in enumerate(labels):
        if _rescan_is_square(l):
            occ.setdefault(l, []).append(k)
    for alpha in sorted(set(squares), key=_rescan_key):
        if len(occ[alpha]) != 2:
            continue
        i, j = occ[alpha]
        inside = [l for l in labels[i + 1:j] if _rescan_is_square(l)]
        outside = [l for l in (list(labels[j + 1:]) + list(labels[:i]))
                   if _rescan_is_square(l)]
        for beta in sorted(set(squares), key=_rescan_key):
            if beta == alpha:
                continue
            if inside.count(beta) == 1 and outside.count(beta) == 1:
                return alpha, beta
    raise NoPairFound("no separating pair of labels")


def rescan_find_hss(o):
    """(curves, histories) of the driver loop run on the reference stage-2
    and backtracking functions; stage 1, emission and splitting are
    shared."""
    g = genus(o)
    cuts, _ = step1(o)
    curves = [OrigamiCurve(z.base, Word(2, [(1, z.length)])) for z in cuts]
    histories = []
    if len(curves) == g:
        return curves, histories
    pool = init_lists(o, cuts)
    chain = None
    while len(curves) < g:
        if chain is not None:
            step3_update(pool, chain)
        final, history = rescan_merge_all(pool)
        histories.append(history)
        alpha, _ = rescan_find_separating_pair(pool_labels(pool, final))
        chain = replay_backtrack(pool, history, alpha)
        curves.append(emit_curve(pool, chain))
    return curves, histories


def assert_same_as_rescan(o):
    result = find_hss_detailed(o)
    curves, histories = rescan_find_hss(o)
    assert [(c.start, str(c.word)) for c in result.curves] == [
        (c.start, str(c.word)) for c in curves], o
    assert len(result.histories) == len(histories), o
    for new, old in zip(result.histories, histories):
        assert new.initial == old.initial, o
        assert new.events == old.events, o
        assert new.final == old.final, o
        assert new.sides == old.sides, o


def assert_tree_walk_matches_replay(o):
    """The merge tree each history records agrees with its events, and
    the tree walk gives the replayed chain for every round's alpha and
    beta, also once the pool has moved on to later rounds."""
    result = find_hss_detailed(o)
    pool = result.pool
    for history, beta in zip(result.histories, result.betas):
        initial_of = {s: lid for lid in history.initial
                      for s in pool.lists[lid].sides}
        assert history.origin == [initial_of[s] for s in history.sides], o
        root = history.initial[0]
        absorbed = {root}
        for ev in history.events:
            if ev[0] != "merge":
                continue
            _, rid, _, mid, gl, gm = ev
            parent = initial_of[gl]
            assert history.tree[mid] == (parent, gl, gm, rid), o
            assert parent in absorbed, o  # absorbed earlier
            absorbed.add(mid)
        assert set(history.tree) == absorbed - {root}, o
        assert absorbed == set(history.initial), o
        alpha, separating = find_separating_pair(p_labels(pool, history))
        assert separating == pool.label_at[beta], o
        for label in (alpha, separating):
            assert backtrack(pool, history,
                             pool.label_ids[label]) == replay_backtrack(
                pool, history, label), (o, label)


def next_chain(pool):
    """One cut-system round on the pool: merge, separating pair, chain."""
    history = merge_all(pool)
    alpha, _ = _separating_pair(history.labs, pool.square, pool.label_at)
    return backtrack(pool, history, alpha)


def assert_order_matches_sections(o):
    """The pool order equals the three sections' order after every round,
    the last one included; the sections run on a second pool kept in
    lockstep with the first."""
    cuts, _ = step1(o)
    rounds = genus(o) - len(cuts)
    if not rounds:
        return
    pool, ref_pool = init_lists(o, cuts), init_lists(o, cuts)
    ref = SectionPool(ref_pool)
    chain = None
    for r in range(rounds + 1):
        if chain is not None:
            step3_update(pool, chain)
            ref.step3_update(ref_pool, chain)
        assert pool.pool_order == ref_pool.pool_order, (o, r)
        if r < rounds:
            chain = next_chain(pool)
            assert next_chain(ref_pool) == chain, (o, r)


def assert_pool_holds_pool_lists(result):
    """The pool holds only 'u', 'o' and 'lz' lists and their splits, and
    each round's list P lives in its history alone: no merge result is a
    pool list, and P's label ids and origins run beside its sides."""
    pool, o = result.pool, result.pool.o
    assert {lst.kind for lst in pool.lists.values()} <= {"u", "o", "lz"}, o
    for history in result.histories:
        if history.events:
            assert history.final not in pool.lists, o
        assert history.labs == [pool.lab[s] for s in history.sides], o
        assert len(history.origin) == len(history.sides), o


class TestStep1:
    def test_four_cylinder_cut(self):
        cuts, graph = step1(wollmilchsau())
        assert [z.base for z in cuts] == [1]
        # the other cylinder (index 1, base 5) received the bridge
        assert [z.base for z in graph.cyls] == [1, 5]
        assert cuts == [graph.cyls[0]]

    @pytest.mark.parametrize("order", [[0], [0, 0], [1, 2], [0, 1, 2]])
    def test_order_must_permute_cylinders(self, order):
        o = wollmilchsau()
        with pytest.raises(ValueError, match="permute"):
            step1(o, order)

    def test_fourteen_square_cuts(self):
        cuts, _ = step1(o14())
        assert [z.base for z in cuts] == [1, 5]
        assert [z.length for z in cuts] == [4, 3]

    def test_single_cylinder_is_cut(self):
        cuts, _ = step1(x_origami(2))
        assert len(cuts) == 1

    def test_cut_count_invariant_under_bridging_order(self):
        rng = random.Random(21)
        for _ in range(25):
            o = random_origami(rng, rng.randint(2, 10))
            base = len(step1(o)[0])
            ncyl = len(cylinders(o))
            for _ in range(10):
                order = list(range(ncyl))
                rng.shuffle(order)
                assert len(step1(o, order)[0]) == base


    def test_one_graph_serves_every_order(self):
        """The bridging pass on one shared graph gives step1's cuts and
        graph for every order, and leaves the graph as it found it."""
        rng = random.Random(22)
        for _ in range(25):
            o = random_origami(rng, rng.randint(2, 14))
            graph = step1_graph(o)
            roots = list(graph.roots)
            for _ in range(10):
                order = list(range(len(graph.cyls)))
                rng.shuffle(order)
                cuts = step1_cuts(graph, order)
                want, want_graph = step1(o, order)
                assert len(cuts) == len(want)
                assert cuts == want and graph == want_graph
            assert graph.roots == roots


class TestInitialLists:
    def test_four_cylinder_lists(self):
        o = wollmilchsau()
        cuts, _ = step1(o)
        pool = init_lists(o, cuts)
        lids = pool.pool_order
        assert [shown(pool, lid) for lid in lids] == [
            ["1", "2", "3", "4"],
            ["8", "5", "6", "7"],
            ["a5", "5", "6", "7", "8", "a5", "2", "3", "4", "1"],
        ]

    def test_fourteen_square_uncut_list(self):
        o = o14()
        cuts, _ = step1(o)
        pool = init_lists(o, cuts)
        lz = [
            lid for lid in pool.pool_order if pool.lists[lid].kind == "lz"
        ]
        assert shown(pool, lz[0]) == [
            "a8", "8", "9", "10", "11", "12", "13", "14",
            "a8", "7", "6", "2", "1", "4", "3", "5",
        ]

    def test_upper_list_reverses_lower_images(self):
        o = l_origami(3, 2)
        cuts, _ = step1(o)
        pool = init_lists(o, cuts)
        lower = next(
            lid for lid in pool.pool_order if pool.lists[lid].kind == "u"
        )
        upper = next(
            lid for lid in pool.pool_order if pool.lists[lid].kind == "o"
        )
        lo = [l.square for l in pool_labels(pool, lower)]
        up = [l.square for l in pool_labels(pool, upper)]
        assert up == [o.p2(s) for s in reversed(lo)]


class TestMerging:
    def test_no_common_label(self):
        o = wollmilchsau()
        cuts, _ = step1(o)
        pool = init_lists(o, cuts)
        a, b = pool.pool_order[:2]  # [1,2,3,4] and [8,5,6,7]
        with pytest.raises(NoCommonLabel):
            concatenate(pool, a, b, SLabel(9, ()), None)

    def test_label_in_one_list_only(self):
        o = wollmilchsau()
        cuts, _ = step1(o)
        pool = init_lists(o, cuts)
        a, b = pool.pool_order[:2]  # [1,2,3,4] and [8,5,6,7]
        with pytest.raises(NoCommonLabel, match="label 1 missing"):
            concatenate(pool, a, b, SLabel(1, ()), None)

    def test_four_cylinder_merge_result(self):
        o = wollmilchsau()
        cuts, _ = step1(o)
        pool = init_lists(o, cuts)
        history = merge_all(pool)
        assert list(map(format_label, p_labels(pool, history))) == [
            "1", "3", "4", "1", "a5", "5", "6", "7",
            "5", "6", "7", "a5", "3", "4",
        ]
        assert list(replay(pool, history)) == history.sides

    def test_unclean_lists_match_rescan(self):
        """Pools whose lists hold adjacent equal labels, also in the first
        list.  merge_all takes the events the rescan engine decides,
        except that it refuses a list which has lost every label it shared
        when its turn comes; only a label on more than two sides can take
        one away, so where every label lies on two sides nothing is
        refused."""

        def pool_of(lists):
            pool = Pool(wollmilchsau())
            for labels in lists:
                sides = [pool.new_side(label) for label in labels]
                pool.pool_order.append(pool.new_list(sides, True, "u", 1))
            return pool

        def two_sided(rng):
            """Lists in which each label lies on exactly two sides."""
            labels = rng.sample([SLabel(s, m) for s in range(1, 6)
                                 for m in ((), (1,))], rng.randint(1, 6)) * 2
            rng.shuffle(labels)
            cut = sorted(rng.sample(range(1, len(labels)),
                                    min(len(labels) - 1, rng.randint(0, 4))))
            return [labels[i:j] for i, j in zip([0] + cut,
                                                cut + [len(labels)]) if i < j]

        rng = random.Random(1515)
        seen = Counter()
        for trial in range(800):
            if trial % 2:
                lists = two_sided(rng)
            else:
                lists = [[SLabel(rng.randint(1, 5),
                                 rng.choice(((), (), (1,))))
                          for _ in range(rng.randint(1, 5))]
                         for _ in range(rng.randint(1, 5))]
            over_two = max(Counter(l for labels in lists
                                   for l in labels).values()) > 2
            try:
                old_final, old = rescan_merge_all(pool_of(lists))
            except Disconnected:
                with pytest.raises((Disconnected, NoCommonLabel)) as exc:
                    merge_all(pool_of(lists))
                assert exc.type is Disconnected or over_two, lists
                continue
            pool = pool_of(lists)
            try:
                history = merge_all(pool)
            except NoCommonLabel as exc:
                assert over_two and "lost its shared labels" in str(exc), lists
                seen["refused"] += 1
                continue
            assert (history.final, history.events) == (old_final,
                                                       old.events), lists
            assert list(replay(pool, history)) == history.sides, lists
            seen["over two" if over_two else "two"] += 1
        assert seen["refused"] and seen["over two"] and seen["two"], seen

    def test_fourteen_square_merge_result(self):
        o = o14()
        cuts, _ = step1(o)
        pool = init_lists(o, cuts)
        history = merge_all(pool)
        assert list(map(format_label, p_labels(pool, history))) == [
            "8", "11", "14", "13", "10", "11", "10", "8", "13", "14",
        ]
        assert list(replay(pool, history)) == history.sides


class TestSeparatingPair:
    def test_four_cylinder_choice(self):
        labels = [
            SLabel(s, ()) if isinstance(s, int) else s
            for s in (1, 3, 4, 1, Sentinel(5), 5, 6, 7,
                      5, 6, 7, Sentinel(5), 3, 4)
        ]
        a, b = find_separating_pair(labels)
        assert (format_label(a), format_label(b)) == ("1", "3")

    def test_smallest_witness_tiebreak(self):
        labels = [SLabel(s, ()) for s in (5, 6, 7, 5, 6, 7)]
        a, b = find_separating_pair(labels)
        assert (format_label(a), format_label(b)) == ("5", "6")

    def test_alternating_pattern(self):
        labels = [SLabel(s, ()) for s in (1, 2, 1, 2)]
        a, b = find_separating_pair(labels)
        assert (format_label(a), format_label(b)) == ("1", "2")


class TestBacktrackAndEmission:
    def run_round(self, o):
        cuts, _ = step1(o)
        pool = init_lists(o, cuts)
        history = merge_all(pool)
        alpha, _ = find_separating_pair(p_labels(pool, history))
        chain = backtrack(pool, history, pool.label_ids[alpha])
        return pool, chain

    def test_four_cylinder_chain_and_curve(self):
        pool, chain = self.run_round(wollmilchsau())
        pairs = [
            (format_label(pool.label_of(p.side_a)),
             format_label(pool.label_of(p.side_b)), p.half)
            for p in chain
        ]
        assert pairs == [("1", "2", "u"), ("2", "1", "o")]
        c = emit_curve(pool, chain)
        assert (c.start, str(c.word)) == (1, "x y^-1 x y")

    def test_fourteen_square_chain_and_curve(self):
        pool, chain = self.run_round(o14())
        pairs = [
            (format_label(pool.label_of(p.side_a)),
             format_label(pool.label_of(p.side_b)), p.half)
            for p in chain
        ]
        assert pairs == [("8", "12", "u"), ("12", "8", "o")]
        c = emit_curve(pool, chain)
        assert (c.start, str(c.word)) == (8, "x^-3 y^-1 x y")


class TestPairExponent:
    def test_pair_outside_its_tagged_cylinder_is_rejected(self):
        """Squares 8 and 10 lie in o14's 7-square cylinder (base 8), two
        steps apart; a pair of them in a list stored under the 3-square
        cylinder (base 5) is inconsistent."""
        o = o14()
        pool = init_lists(o, [z for z in cylinders(o) if z.length == 7])
        (lid,) = [lid for lid in pool.pool_order
                  if pool.lists[lid].kind == "u"]
        sides = pool.lists[lid].sides
        assert shown(pool, lid)[:3] == ["8", "9", "10"]
        assert _exponent(pool, sides[0], sides[2], lid, "u") == 2
        wrong = pool.new_list(sides, True, "u", 5)
        with pytest.raises(InconsistentChain, match="pair's cylinder"):
            _exponent(pool, sides[0], sides[2], wrong, "u")


class TestListSplitting:
    def test_four_cylinder_split_tables(self):
        o = wollmilchsau()
        cuts, _ = step1(o)
        pool = init_lists(o, cuts)
        history = merge_all(pool)
        alpha, _ = find_separating_pair(p_labels(pool, history))
        chain = backtrack(pool, history, pool.label_ids[alpha])
        step3_update(pool, chain)
        tables = [
            (pool.lists[lid].kind, pool.lists[lid].cyclic, shown(pool, lid))
            for lid in pool.pool_order
        ]
        assert tables == [
            ("u", True, ["1'", '2"', "3", "4"]),
            ("u", False, ['1"', "2'"]),
            ("o", True, ["8", "5", "6", "7"]),
            ("o", False, ["1'", '2"']),
            ("lz", True,
             ["a5", "5", "6", "7", "8", "a5", "2'", "3", "4", '1"']),
        ]

    def test_fourteen_square_split_table(self):
        o = o14()
        cuts, _ = step1(o)
        pool = init_lists(o, cuts)
        history = merge_all(pool)
        alpha, _ = find_separating_pair(p_labels(pool, history))
        chain = backtrack(pool, history, pool.label_ids[alpha])
        step3_update(pool, chain)
        split = [
            shown(pool, lid)
            for lid in pool.pool_order
            if pool.lists[lid].kind == "u" and not pool.lists[lid].cyclic
        ]
        assert split == [['12"', "13", "14", "8'"]]
        lz = [
            shown(pool, lid)
            for lid in pool.pool_order
            if pool.lists[lid].kind == "lz"
        ]
        assert lz == [[
            "a8", '8"', "9", "10", "11", "12'",
            "a8", "7", "6", "2", "1", "4", "3", "5",
        ]]


    def test_pair_torn_across_lists_is_rejected(self):
        o = wollmilchsau()
        cuts, _ = step1(o)
        pool = init_lists(o, cuts)
        lower, upper = pool.pool_order[:2]  # [1,2,3,4] and [8,5,6,7]
        side_a = pool.lists[lower].sides[0]
        side_b = pool.lists[upper].sides[1]
        pair = ChainPair(side_a, side_b, lower, "u", 1)
        with pytest.raises(InconsistentChain, match="torn"):
            step3_update(pool, [pair])

    def test_pair_in_a_list_split_before_is_rejected(self):
        """A chain pair names the pool list it lies in; a list that an
        earlier round split is no longer a pool list, even where one of its
        sides lives on in a successor."""
        o = wollmilchsau()
        cuts, _ = step1(o)
        pool = init_lists(o, cuts)
        chain = next_chain(pool)
        step3_update(pool, chain)
        stale = chain[0].lid
        assert stale not in pool.pool_order
        sides = pool.lists[stale].sides
        assert {sides[2], sides[3]}.isdisjoint({chain[0].side_a,
                                                chain[0].side_b})
        pair = ChainPair(sides[2], sides[3], stale, chain[0].half, 1)
        with pytest.raises(InconsistentChain, match="not a pool list"):
            step3_update(pool, [pair])

    def test_pair_of_a_spent_side_is_rejected(self):
        """A chain names each pool list once, so a second pair in a list
        the chain has split, here one of a side that split replaced by
        primed copies, is refused; so is a pair whose first side lies in
        another list than the one it names."""
        o = wollmilchsau()
        cuts, _ = step1(o)
        pool = init_lists(o, cuts)
        lower, upper = pool.pool_order[:2]  # [1,2,3,4] and [8,5,6,7]
        a, b, c, _ = pool.lists[lower].sides
        chain = [ChainPair(a, b, lower, "u", 1),
                 ChainPair(a, c, lower, "u", 2)]
        with pytest.raises(InconsistentChain,
                           match=f"list {lower} is not a pool list"):
            step3_update(pool, chain)
        pool = init_lists(o, cuts)
        side = pool.lists[upper].sides[0]
        with pytest.raises(InconsistentChain,
                           match=f"side {side} not in list {lower}"):
            step3_update(pool, [ChainPair(side, b, lower, "u", 1)])


    @pytest.mark.parametrize("half", "uo")
    def test_sweep_against_a_non_cyclic_list_is_rejected(self, half):
        """After one real round, a pair in a non-cyclic L1 list whose
        exponent runs against the stored order is refused, before any
        list is made; with its own exponent the pair splits the list."""
        o = wollmilchsau()
        cuts, _ = step1(o)
        pool = init_lists(o, cuts)
        step3_update(pool, next_chain(pool))
        (lid,) = [lid for lid in pool.pool_order
                  if pool.lists[lid].kind == half
                  and not pool.lists[lid].cyclic]
        a, b = pool.lists[lid].sides
        e = _exponent(pool, a, b, lid, half)
        made = len(pool.lists)
        with pytest.raises(InconsistentChain,
                           match="sweep must run forward in a non-cyclic"):
            step3_update(pool, [ChainPair(a, b, lid, half, -e)])
        assert len(pool.lists) == made
        step3_update(pool, [ChainPair(a, b, lid, half, e)])
        assert lid not in pool.pool_order


def pool_state(pool):
    """What a cut-system stage can mint in or change of a pool."""
    return (len(pool.lists), len(pool.lab), len(pool.label_at),
            list(pool.pool_order), pool._next_list)


def assert_refused_unchanged(pool, stage, error, match):
    """stage() refuses with error and leaves the pool as it was."""
    before = pool_state(pool)
    with pytest.raises(error, match=match):
        stage()
    assert pool_state(pool) == before


class TestRefusedStagesLeaveThePool:
    """Each stage checks its whole input before it changes the pool, so a
    refused chain or pool mints no list, side or label and keeps the pool
    order and the list counter."""

    def test_chain_naming_a_list_twice(self):
        o = wollmilchsau()
        pool = init_lists(o, step1(o)[0])
        lower = pool.pool_order[0]  # [1,2,3,4]
        a, b, c, _ = pool.lists[lower].sides
        chain = [ChainPair(a, b, lower, "u", 1),
                 ChainPair(a, c, lower, "u", 2)]
        assert_refused_unchanged(
            pool, lambda: step3_update(pool, chain), InconsistentChain,
            f"list {lower} is not a pool list")

    def test_pair_on_a_spent_side(self):
        """The first pair splits the lower list; the second names a side
        of it, which that split replaced, in the upper list."""
        o = wollmilchsau()
        pool = init_lists(o, step1(o)[0])
        lower, upper = pool.pool_order[:2]  # [1,2,3,4] and [8,5,6,7]
        a, b, _, _ = pool.lists[lower].sides
        x = pool.lists[upper].sides[0]
        chain = [ChainPair(a, b, lower, "u", 1),
                 ChainPair(a, x, upper, "o", 1)]
        assert_refused_unchanged(
            pool, lambda: step3_update(pool, chain), InconsistentChain,
            f"side {a} not in list {upper}")

    @pytest.mark.parametrize("half", "uo")
    def test_backward_sweep_in_a_non_cyclic_list(self, half):
        o = wollmilchsau()
        pool = init_lists(o, step1(o)[0])
        step3_update(pool, next_chain(pool))
        (lid,) = [lid for lid in pool.pool_order
                  if pool.lists[lid].kind == half
                  and not pool.lists[lid].cyclic]
        a, b = pool.lists[lid].sides
        e = _exponent(pool, a, b, lid, half)
        assert_refused_unchanged(
            pool, lambda: step3_update(pool, [ChainPair(a, b, lid, half, -e)]),
            InconsistentChain, "sweep must run forward in a non-cyclic")

    @pytest.mark.parametrize("e", [1, -1])
    def test_pair_straddling_the_halves_of_an_lz_list(self, e):
        """A 'u' pair of an uncut cylinder's list [a_Z, 8, a_Z, 1] whose
        second side lies on the upper half: splitting it would put a_Z
        into L1 (e > 0), or a third a_Z and the replaced side into L0
        (e < 0)."""
        o = random_origami(random.Random(12), 8)
        pool = init_lists(o, step1(o)[0])
        lid = next(lid for lid in pool.pool_order
                   if pool.lists[lid].kind == "lz")
        lst = pool.lists[lid]
        assert [pool.label_of(s) for s in lst.sides] == [
            Sentinel(8), SLabel(8), Sentinel(8), SLabel(1)]
        assert (lst.half_of(lst.sides[1]), lst.half_of(lst.sides[3])) == (
            "u", "o")
        pair = ChainPair(lst.sides[1], lst.sides[3], lid, "u", e)
        assert_refused_unchanged(
            pool, lambda: step3_update(pool, [pair]), InconsistentChain,
            "pair straddles list halves")

    @pytest.mark.parametrize("labels, error, match", [
        ([[1, 2], [3]], Disconnected, "does not splice"),
        ([[1], [1], [1]], NoCommonLabel, "list 2 lost its shared labels"),
    ])
    def test_pool_that_merge_all_cannot_splice(self, labels, error, match):
        pool = Pool(wollmilchsau())
        for squares in labels:
            sides = [pool.new_side(SLabel(s)) for s in squares]
            pool.pool_order.append(pool.new_list(sides, True, "u", 1))
        assert_refused_unchanged(pool, lambda: merge_all(pool), error, match)


class TestDriver:
    def test_four_cylinder_system(self):
        curves = find_hss(wollmilchsau())
        assert [(c.start, str(c.word)) for c in curves] == [
            (1, "x^4"),
            (1, "x y^-1 x y"),
            (5, "x^-1 y^-1 x^-1 y"),
        ]

    def test_fourteen_square_system(self):
        curves = find_hss(o14())
        assert [(c.start, str(c.word)) for c in curves] == [
            (1, "x^4"),
            (5, "x^3"),
            (8, "x^-3 y^-1 x y"),
            (8, "x^2 y^-1 x^-1 y"),
        ]

    @pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (4, 3)])
    def test_l_shape_cuts_are_cylinder_words(self, m, n):
        curves = find_hss(l_origami(m, n))
        words = sorted(str(c.word) for c in curves)
        assert words == sorted(["x" if m == 1 else f"x^{m}", "x"])

    def test_detailed_result_reports_cuts_and_histories(self):
        result = find_hss_detailed(o14())
        assert len(result.cut_cylinders) == 2
        assert len(result.histories) == 2  # two backtracking rounds
        for history in result.histories:
            assert history.final is not None

    def test_random_sweep_invariants(self):
        rng = random.Random(99)
        for _ in range(60):
            o = random_origami(rng, rng.randint(2, 12))
            g = genus(o)
            curves = find_hss(o)
            assert len(curves) == g
            model = h1_model(o)
            classes = []
            for c in curves:
                assert is_closed(o, c)
                assert is_conjugate_horizontal(c.word)
                classes.append(model.coords(edge_cycle(o, c.start, c.word)))
            assert f2_independent(classes)


class TestSideHalves:
    """A side is its label id: its half and cylinder are read off the
    pool list that holds it."""

    def test_pool_keeps_one_per_side_array(self):
        pool = find_hss_detailed(random_origami(random.Random(40), 40)).pool
        assert len(vars(pool)) == 9
        n = len(pool.lab)
        assert [k for k, v in vars(pool).items()
                if isinstance(v, list) and len(v) == n] == ["lab"]

    def test_half_of_matches_a_scan_of_the_labels(self, fixture_origamis):
        """half_of, and span for each half, against side_half; a list
        without a half refuses its span."""
        for _, o in fixture_origamis + [
                ("d64", random_origami(random.Random(64), 64))]:
            pool = find_hss_detailed(o).pool
            for lid, lst in pool.lists.items():
                halves = [side_half(pool, lid, s) for s in lst.sides]
                assert [lst.half_of(s) for s in lst.sides] == halves, o
                for half in "uo":
                    on = [k for k, h in enumerate(halves) if h == half]
                    if on:
                        assert lst.span(half) == (on[0], on[-1] + 1), o
                    else:
                        with pytest.raises(InconsistentChain,
                                           match="pair in a"):
                            lst.span(half)


class TestEachLabelNamesTwoSides:
    """In every pool that find_hss_detailed leaves, each label id names
    exactly two sides."""

    @staticmethod
    def pools_checked(origamis):
        n = 0
        for o in origamis:
            pool = find_hss_detailed(o).pool
            assert Counter(pool.lab) == {
                lid: 2 for lid in range(len(pool.label_at))}, o
            n += 1
        return n

    def test_fixtures(self, fixture_origamis):
        assert self.pools_checked(o for _, o in fixture_origamis)

    def test_seeded_degrees(self):
        assert self.pools_checked(random_origami(random.Random(d), d)
                                  for d in range(2, 65))

    def test_random_forty_square_origamis(self):
        rng = random.Random(40)
        assert self.pools_checked(random_origami(rng, 40)
                                  for _ in range(100)) == 100


class TestSentinelInOneList:
    """merge_all indexes every label id of the pool lists, sentinels
    included, and counts them all; that is sound because in every round
    each sentinel label id is held by exactly one pool list, so no other
    list can share it."""

    @staticmethod
    def rounds_checked(origamis):
        """(rounds, rounds with a sentinel) over the origamis."""
        rounds = with_sentinel = 0
        for o in origamis:
            result = find_hss_detailed(o)
            pool = result.pool
            sentinels = {l: 1 for l in range(len(pool.label_at))
                         if not pool.square[l]}
            for history in result.histories:
                held = Counter(l for lid in history.initial
                               for l in set(pool.lists[lid].labs)
                               if not pool.square[l])
                assert held == sentinels, o
                rounds += 1
                with_sentinel += bool(sentinels)
        return rounds, with_sentinel

    def test_fixtures(self, fixture_origamis):
        assert all(self.rounds_checked(o for _, o in fixture_origamis))

    def test_random_sample(self, random_sample):
        assert all(self.rounds_checked(o for _, o in random_sample))

    def test_seeded_degrees(self):
        assert all(self.rounds_checked(
            random_origami(random.Random(d), d) for d in range(2, 65)))


def rounds_well_formed(o):
    """Runs the rounds of find_hss_detailed on o and checks the two facts
    stage 3 and merge_all rely on: at the start of each round every label
    id lies on exactly two sides of the pool lists (a sentinel's two in
    one 'lz' list), and no chain, of the round's alpha or its beta, names
    a pool list twice.  Returns the number of rounds."""
    cuts, _ = step1(o)
    pool = init_lists(o, cuts)
    rounds = genus(o) - len(cuts)
    chain = None
    for r in range(rounds):
        if chain is not None:
            step3_update(pool, chain)
        held = Counter(l for lid in pool.pool_order
                       for l in pool.lists[lid].labs)
        assert set(held.values()) == {2}, (o, r)
        history = merge_all(pool)
        alpha, beta = _separating_pair(history.labs, pool.square,
                                       pool.label_at)
        for label in (beta, alpha):
            chain = backtrack(pool, history, label)
            lids = [pair.lid for pair in chain]
            assert len(set(lids)) == len(lids), (o, r, label)
    return rounds


class TestRoundsAreWellFormed:
    """The invariants of `rounds_well_formed` on real rounds."""

    def test_fixtures(self, fixture_origamis):
        assert sum(rounds_well_formed(o) for _, o in fixture_origamis)

    def test_random_sample(self, random_sample):
        assert sum(rounds_well_formed(o) for _, o in random_sample)

    def test_seeded_degrees(self):
        assert sum(rounds_well_formed(random_origami(random.Random(d), d))
                   for d in [*range(2, 65), 96, 128])


class TestPoolHoldsOnlyPoolLists:
    """merge_all returns P in its history; the pool keeps pool lists."""

    def test_fixtures(self, fixture_origamis):
        for _, o in fixture_origamis:
            assert_pool_holds_pool_lists(find_hss_detailed(o))

    def test_random_sample(self, random_sample):
        for _, o in random_sample:
            assert_pool_holds_pool_lists(find_hss_detailed(o))

    def test_seeded_degrees(self):
        for d in range(2, 65):
            assert_pool_holds_pool_lists(
                find_hss_detailed(random_origami(random.Random(d), d)))

    def test_without_events_p_is_the_only_list(self):
        """A pool of one list needs no splice and no cancellation: P is
        that list, which stays in the pool under its own id."""
        o = wollmilchsau()
        pool = Pool(o)
        sides = [pool.new_side(SLabel(s)) for s in (1, 2, 3)]
        pool.pool_order.append(pool.new_list(sides, True, "u", 1))
        history = merge_all(pool)
        assert not history.events
        assert history.final == pool.pool_order[0]
        assert history.sides == sides
        assert history.labs == [pool.lab[s] for s in sides]
        assert history.origin == [history.final] * 3

    @pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 2)])
    def test_stage_one_cuts_every_curve(self, m, n):
        """Stage 1 alone gives the whole cut system: no round runs, the
        result still has a pool of the cylinders' boundary lists, and the
        duals are the cuts' transversals."""
        o = l_origami(m, n)
        g = genus(o)
        result = find_hss_detailed(o)
        assert len(result.cut_cylinders) == g
        assert result.histories == [] and result.betas == []
        pool = result.pool
        assert isinstance(pool, Pool)
        uncut = len(cylinders(o)) - g
        assert [pool.lists[lid].kind for lid in pool.pool_order] == (
            ["u"] * g + ["o"] * g + ["lz"] * uncut)
        cut = {s for z in result.cut_cylinders for s in z.squares}
        assert [(c.start, str(c.word)) for c in dual_curves(result)] == [
            (c.start, str(c.word))
            for c in (_transversal(o, z, cut) for z in result.cut_cylinders)]


class TestExponentOncePerPair:
    """Backtracking computes each chain pair's exponent once and stores it
    in the pair; emission and stage 3 read it there."""

    @staticmethod
    def assert_once_per_pair(monkeypatch, o):
        from origami_forge import hss

        calls, pairs = [], []
        real_exponent, real_backtrack = hss._exponent, hss.backtrack

        def exponent(pool, *pair):
            e = real_exponent(pool, *pair)
            calls.append((*pair, e))
            return e

        def backtrack(*args):
            chain = real_backtrack(*args)
            pairs.extend(chain)
            return chain

        with monkeypatch.context() as m:
            m.setattr(hss, "_exponent", exponent)
            m.setattr(hss, "backtrack", backtrack)
            dual_curves(find_hss_detailed(o))
        assert calls == [tuple(p) for p in pairs], o
        return len(pairs)

    def test_fixtures(self, monkeypatch, fixture_origamis):
        assert sum(self.assert_once_per_pair(monkeypatch, o)
                   for _, o in fixture_origamis)

    def test_seeded_degrees(self, monkeypatch):
        assert sum(self.assert_once_per_pair(
            monkeypatch, random_origami(random.Random(d), d))
            for d in range(2, 41))


class TestStoredLists:
    """merge_all edits one accumulator per round in place: of the merge
    results, only each round's final list P is stored, in the round's
    history and not in the pool."""

    @pytest.fixture(scope="class")
    def result(self):
        return find_hss_detailed(random_origami(random.Random(64), 64))

    def test_only_final_lists_are_stored(self, result):
        assert_pool_holds_pool_lists(result)
        assert all(h.events for h in result.histories)

    def test_dual_curves_match_golden(self, result):
        """The golden holds dual_curves of this result as computed by the
        engine that stored every intermediate list."""
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "golden", "hss_duals_random_d64.json")
        with open(path, encoding="utf-8") as fh:
            expected = json.load(fh)
        assert [{"start": c.start, "word": str(c.word)}
                for c in dual_curves(result)] == expected


class TestBacktrackAgainstReplay:
    """The merge-tree walk against the reverse replay of the event log."""

    def test_fixtures(self, fixture_origamis):
        for _, o in fixture_origamis:
            assert_tree_walk_matches_replay(o)

    def test_random_sample(self, random_sample):
        for _, o in random_sample:
            assert_tree_walk_matches_replay(o)

    @pytest.mark.parametrize("d", range(2, 65))
    def test_seeded_degree(self, d):
        assert_tree_walk_matches_replay(random_origami(random.Random(d), d))

    def test_alpha_must_occur_twice(self):
        o = wollmilchsau()
        cuts, _ = step1(o)
        pool = init_lists(o, cuts)
        history = merge_all(pool)
        for label in (SLabel(2), SLabel(99), SLabel(1, (1,))):
            with pytest.raises(InconsistentChain, match="exactly twice"):
                backtrack(pool, history, pool.intern(label))


class TestAgainstRescanEngine:
    """Identical curves and merge histories as the reference engine."""

    def test_fixtures(self, fixture_origamis):
        for _, o in fixture_origamis:
            assert_same_as_rescan(o)

    def test_random_sample(self, random_sample):
        for _, o in random_sample:
            assert_same_as_rescan(o)

    @pytest.mark.parametrize("d", [*range(2, 49), 56, 64])
    def test_seeded_degree(self, d):
        assert_same_as_rescan(random_origami(random.Random(d), d))

    def test_separating_pair_on_random_sequences(self):
        rng = random.Random(4711)
        for _ in range(3000):
            labels = []
            for _ in range(rng.randint(0, 14)):
                r = rng.random()
                if r < 0.15:
                    labels.append(Sentinel(rng.randint(1, 3)))
                else:
                    marks = rng.choice(((), (), (1,), (2,), (1, 2)))
                    labels.append(SLabel(rng.randint(1, 6), marks))
            # mostly pairs, with singletons and triples mixed in
            labels += [l for l in labels if rng.random() < 0.8]
            rng.shuffle(labels)
            try:
                expected = rescan_find_separating_pair(labels)
            except NoPairFound:
                with pytest.raises(NoPairFound):
                    find_separating_pair(labels)
                continue
            assert find_separating_pair(labels) == expected, labels


class TestPoolOrderAgainstSections:
    """One pool order, rebuilt once per round, against the three sections
    it replaced."""

    def test_fixtures(self, fixture_origamis):
        for _, o in fixture_origamis:
            assert_order_matches_sections(o)

    def test_random_sample(self, random_sample):
        for _, o in random_sample:
            assert_order_matches_sections(o)

    @pytest.mark.parametrize("d", [48, 64, 96])
    def test_seeded_degree(self, d):
        assert_order_matches_sections(random_origami(random.Random(d), d))

    def test_lists_split_twice_in_one_chain(self, fixture_origamis):
        """Chains of one, two or three pairs in one list, nested so that
        each later pair would split the L0 or the L1 of the one before.  A
        cut-system round never makes more than one pair per list, as its
        chain is a path in its merge tree, and step3_update refuses the
        second pair: it names a list that is no longer a pool list.  A
        chain of one pair splits the list as the sections do."""
        rng = random.Random(2222)
        seen = Counter()
        for trial in range(1500):
            _, o = fixture_origamis[trial % len(fixture_origamis)]
            cuts, _ = step1(o)
            pool, ref_pool = init_lists(o, cuts), init_lists(o, cuts)
            ref = SectionPool(ref_pool)
            if trial % 3 and genus(o) > len(cuts) + 1:
                chain = next_chain(pool)
                assert next_chain(ref_pool) == chain
                step3_update(pool, chain)
                ref.step3_update(ref_pool, chain)
            lid = rng.choice(pool.pool_order)
            lst = pool.lists[lid]
            half = rng.choice("uo") if lst.kind == "lz" else lst.kind
            lo, hi = lst.span(half)
            sides = lst.sides[lo:hi]
            if len(sides) < 2:
                continue
            # nested pairs: each later one lies in the L0 or the L1 of the
            # one before
            k = rng.choice([n for n in (2, 4, 6) if n <= len(sides)])
            width = rng.randint(k, len(sides))  # a short one sweeps forward
            start = rng.randint(0, len(sides) - width)
            at = sorted(rng.sample(range(start, start + width), k))
            try:
                chain = [ChainPair(sides[i], sides[j], lid, half,
                                   _exponent(pool, sides[i], sides[j], lid,
                                             half))
                         for i, j in zip(at[:len(at) // 2], reversed(at))]
            except InconsistentChain:
                continue
            if len(chain) == 1:
                try:
                    step3_update(pool, chain)
                except InconsistentChain:  # a sweep against the stored order
                    with pytest.raises(InconsistentChain, match="sweep"):
                        ref.step3_update(ref_pool, chain)
                    continue
                ref.step3_update(ref_pool, chain)
                assert pool.pool_order == ref_pool.pool_order, (o, chain)
                seen[lst.kind, "split"] += 1
                continue
            with pytest.raises(InconsistentChain) as exc:
                step3_update(pool, chain)
            if "sweep" not in str(exc.value):  # else the first pair's own
                assert str(exc.value) == f"list {lid} is not a pool list"
                seen[lst.kind, "refused"] += 1
        assert all(seen[kind, what] for kind in ("u", "o", "lz")
                   for what in ("split", "refused")), seen
