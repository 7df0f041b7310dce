from bisect import bisect_left
from functools import lru_cache
from itertools import combinations, product as iproduct
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from ncmotzkin import adapted as ad
from ncmotzkin import partitions as sp
from ncmotzkin import words as wd
from ncmotzkin.acceptance import (FIG1_WORD, FIG1_VERTICES, FIG1_EDGES,
                                  FIG3_COUNTS, FIG3_12221, EX34_MONOTONE)


def test_five_letter_lattice_vertices():
    assert sorted(ad.enumerate_adapted(FIG1_WORD, 'all')) == \
        sorted(FIG1_VERTICES)


def test_five_letter_lattice_covers():
    assert sorted(ad.hasse_adapted(FIG1_WORD)) == sorted(FIG1_EDGES)


def test_five_letter_lattice_split():
    verts = ad.enumerate_adapted(FIG1_WORD, 'all')
    irr = [v for v in verts if sp.is_irreducible(v)]
    assert len(irr) == 5 and len(verts) == 10
    assert all((1,) in v for v in verts if not sp.is_irreducible(v))


def test_irreducible_counts_table():
    for w, count in FIG3_COUNTS.items():
        assert len(ad.enumerate_adapted(w, 'irr')) == count


def test_irreducible_family_of_12221():
    assert ad.enumerate_adapted((1, 2, 2, 2, 1), 'irr') == FIG3_12221


def test_monotone_family_of_12221():
    assert ad.enumerate_adapted((1, 2, 2, 2, 1), 'monotone_irr') == \
        EX34_MONOTONE


def test_zero_hat_examples():
    assert ad.zero_hat((1, 1, 2, 2, 1)) == \
        ((1,), (2, 5), (3,), (4,))
    assert ad.zero_hat((1, 2, 2, 2, 1)) == \
        ((1, 5), (2,), (3,), (4,))
    assert ad.zero_hat((1, 1, 1)) == ((1,), (2,), (3,))
    # NC(w) of these words has more than 2^40 elements: zero_hat must not
    # list them, nor the first blocks of its runs
    w = (1,) + (2,) * 40 + (1,)
    assert ad.zero_hat(w) == ((1, 42),) + tuple((p,) for p in range(2, 42))
    w = (1, 2) * 20 + (1,)
    assert ad.zero_hat(w) == \
        (tuple(range(1, 42, 2)),) + tuple((p,) for p in range(2, 42, 2))


def test_zero_hat_is_least():
    for n in range(1, 6):
        for w in wd.enumerate_words(n):
            verts = ad.enumerate_adapted(w, 'all')
            bot = ad.zero_hat(w)
            assert bot in verts
            assert all(sp.refines(bot, v) for v in verts)


def test_zero_hat_raises_where_its_scan_fails():
    # the scan leaves 2 out of 12, and makes 2 and 3 siblings in 1231
    for w in ((1, 2), (2, 1), (2, 1, 2), (1, 2, 3, 1)):
        with pytest.raises(ValueError, match='not a Motzkin word'):
            ad.zero_hat(w)
    assert ad.zero_hat((1, 3, 1)) == ((1, 3), (2,))


def frozen_zero_hat(w):
    """zero_hat as it was before its gaps became ranges: each gap is
    scanned out of the positions handed to rec."""
    w = tuple(w)
    blocks = []

    def rec(positions):
        base = min(w[p - 1] for p in positions)
        bases = [p for p in positions if w[p - 1] == base]
        cur = [bases[0]]
        for prev, p in zip(bases, bases[1:]):
            gap = [q for q in positions if prev < q < p]
            if gap:
                cur.append(p)
                rec(gap)
            else:
                blocks.append(tuple(cur))
                cur = [p]
        blocks.append(tuple(cur))

    rec(list(range(1, len(w) + 1)))
    if sum(map(len, blocks)) != len(w) or not ad.is_adapted(blocks, w):
        raise ValueError(f'{w} is not a Motzkin word')
    return sp.normalize(blocks)


def test_zero_hat_matches_frozen():
    # every sequence over 1..3 to length 6, Motzkin words or not, and the
    # reduced words of length 7 and 8
    cases = [w for n in range(1, 7)
             for w in iproduct((1, 2, 3), repeat=n)]
    cases += wd.enumerate_words(7) + wd.enumerate_words(8)
    raised = 0
    for w in cases:
        outcomes = []
        for zero_hat in (frozen_zero_hat, ad.zero_hat):
            try:
                outcomes.append(zero_hat(w))
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], w
        raised += isinstance(outcomes[0], str)
    assert 0 < raised < len(cases)  # both outcomes are compared


def test_closure_equals_filter():
    for n in range(1, 7):
        for w in wd.enumerate_words(n):
            assert ad.coarsening_closure(w) == ad.enumerate_adapted(w, 'all')


def frozen_admissible_coarsenings(pi, w):
    # admissible_coarsenings as written before it merged every pair of
    # masks: candidate pairs from the nesting map, each merge normalized
    # and checked by is_adapted
    pi = sp.normalize(pi)
    w = tuple(w)
    nest = sp.nesting(pi)
    gaps = {}
    for v, (outer, _d) in nest.items():
        key = None if outer is None else (outer, bisect_left(outer, v[0]))
        gaps.setdefault(key, []).append(v)
    candidates = [(u, v) for group in gaps.values()
                  for i, u in enumerate(group) for v in group[i + 1:]]
    candidates += [(v, outer) for v, (outer, _d) in nest.items()
                   if outer is not None]
    out = []
    seen = set()
    for u, v in candidates:
        merged = sp.normalize(
            [b for b in pi if b not in (u, v)] + [tuple(sorted(u + v))])
        if merged not in seen and ad.is_adapted(merged, w):
            seen.add(merged)
            out.append(merged)
    return sorted(out)


def test_admissible_coarsenings_match_frozen():
    # every adapted partition of every word of length <= 8, heights 1, 2
    pairs = 0
    for n in range(1, 9):
        for h in (1, 2):
            for w in wd.enumerate_words(n, h):
                for pi in ad.enumerate_adapted(w):
                    assert ad.admissible_coarsenings(pi, w) == \
                        frozen_admissible_coarsenings(pi, w), (pi, w)
                    pairs += 1
    assert pairs == 21671


def test_admissible_coarsenings_refuse_unadapted():
    # blocks in any order are read as their canonical form
    assert ad.admissible_coarsenings(((3,), (4, 1), (2,)), (1, 2, 2, 1)) \
        == [((1, 2, 4), (3,)), ((1, 3, 4), (2,)), ((1, 4), (2, 3))]
    # a crossing partition, and noncrossing ones that are not adapted
    for pi, w in ((((1, 3), (2, 4)), (1, 1, 1, 1)),
                  (((1, 4), (2, 3)), (1, 1, 1, 1)),
                  (((1,), (2,)), (1, 2))):
        assert not ad.is_adapted(pi, w)
        with pytest.raises(ValueError, match='^coarsenings need a partition '
                           'adapted to the word$'):
            ad.admissible_coarsenings(pi, w)
    with pytest.raises(ValueError, match='partition/word length mismatch'):
        ad.admissible_coarsenings(((1,),), (1, 1))


words_upto = st.integers(1, 5).flatmap(
    lambda n: st.sampled_from(wd.enumerate_words(n)))


@settings(max_examples=60, deadline=None)
@given(words_upto)
def test_join_is_least_upper_bound(w):
    verts = ad.enumerate_adapted(w, 'all')
    # each partition's up-set as an int bitset over the indices
    up = [sum(1 << i for i, v in enumerate(verts) if sp.refines(u, v))
          for u in verts]
    index = {v: i for i, v in enumerate(verts)}
    for a, up_a in zip(verts, up):
        for b, up_b in zip(verts, up):
            uppers = up_a & up_b
            j = index[ad.join_adapted(a, w, b, w)]
            assert uppers >> j & 1
            assert not uppers & ~up[j]


def test_join_requires_common_word():
    with pytest.raises(ValueError):
        ad.join_adapted(((1,),), (1,), ((1,),), (2,))
    with pytest.raises(ValueError, match='ground set mismatch'):
        ad.join_adapted(((1, 2),), (1, 1), ((1,), (2,), (3,)), (1, 1))


def test_join_checks_its_word():
    with pytest.raises(ValueError, match='partition/word length mismatch'):
        ad.join_adapted(((1,), (2,)), (1,), ((1, 2),), (1,))
    with pytest.raises(ValueError, match='partition/word length mismatch'):
        ad.join_adapted(((1,),), (1, 1), ((1,),), (1, 1))
    # 12 is not a Motzkin word, so no partition is adapted to it
    with pytest.raises(ValueError, match='join left the adapted family'):
        ad.join_adapted(((1,), (2,)), (1, 2), ((1,), (2,)), (1, 2))


def test_join_matches_frozen():
    # the join as it was: join_nc printed, then is_adapted parsing it back
    for n in range(1, 6):
        for w in wd.enumerate_words(n):
            verts = ad.enumerate_adapted(w, 'all')
            for a in verts:
                for b in verts:
                    joined = sp.join_nc(a, b)
                    assert ad.is_adapted(joined, w)
                    assert ad.join_adapted(a, w, b, w) == joined


# Inputs that are not partitions of 1..n, one fault each, blocks and
# elements in any order, with the message partitions._masks gives it.
# normalize checks through it after sorting; the join and the
# adaptedness scan read blocks through it, in either argument of the
# join.
NOT_PARTITIONS = (
    (((1,), ()), 'empty block'),
    ((), 'the empty partition has no ground set 1..n'),
    (((1, 2), (2,)), 'element 2 appears twice'),
    (((1,), (1,)), 'element 1 appears twice'),
    (((1, 1),), 'element 1 appears twice'),
    (((1, 3),), 'blocks must cover 1..n'),
    (((0, 1),), 'blocks must cover 1..n'),
    (((), (1,)), 'empty block'),
    (((2, 1), (2,)), 'element 2 appears twice'),
    (((3,), (1, 2), (3,)), 'element 3 appears twice'),
    (((3,), (1,)), 'blocks must cover 1..n'),
    (((4, 2), (1,)), 'blocks must cover 1..n'),
    (((2, -1),), 'blocks must cover 1..n'),
)


@pytest.mark.parametrize('bad, message', NOT_PARTITIONS)
def test_non_partitions_raise(bad, message):
    with pytest.raises(ValueError, match=f'^{message}$'):
        sp.normalize(bad)
    n = sp.ground_size(bad)
    w = (1,) * n
    good = tuple((x,) for x in range(1, n + 1))
    for pi, rho in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match=message):
            sp.join_nc(pi, rho)
        with pytest.raises(ValueError, match=message):
            ad.join_adapted(pi, w, rho, w)
    for check in (ad.is_adapted, ad.is_monotone, ad.admissible_coarsenings):
        with pytest.raises(ValueError, match=message):
            check(bad, w)


def test_adaptedness_reads_blocks_in_any_order():
    # zero_hat passes its blocks unsorted; elements may come in any order
    w = (1, 2, 2, 1)
    for pi in (((2,), (1, 4), (3,)), ((4, 1), (3,), (2,)), ((2, 1), (3, 4))):
        want = sp.normalize(pi)
        assert ad.is_adapted(pi, w) == ad.is_adapted(want, w)
        assert ad.is_monotone(pi, w) == ad.is_monotone(want, w)
    assert ad.is_adapted(((2, 1),), (1, 1))
    for predicate in (ad.is_adapted, ad.is_monotone):
        with pytest.raises(ValueError, match='partition/word length'):
            predicate(((1,),), (1, 1))


def test_interval_splits():
    assert ad.interval_splits((1, 2, 2, 1)) == [((1, 2, 3, 4),)]
    assert ad.interval_splits((1, 2, 1, 1)) == \
        [((1, 2, 3), (4,)), ((1, 2, 3, 4),)]


def frozen_interval_splits(w):
    # interval_splits as written before it read its cuts from _cuts
    w = tuple(w)
    n = len(w)
    h = wd.height(w)
    valid = [k for k in range(1, n) if w[k - 1] == h and w[k] == h]
    out = []
    for r in range(len(valid) + 1):
        for cuts in combinations(valid, r):
            blocks = []
            start = 1
            for k in cuts:
                blocks.append(tuple(range(start, k + 1)))
                start = k + 1
            blocks.append(tuple(range(start, n + 1)))
            out.append(tuple(blocks))
    return sorted(out)


def test_interval_splits_match_frozen():
    words = [w for n in range(1, 9) for w in wd.enumerate_words(n)]
    assert len(words) == 216
    for w in words:
        assert ad.interval_splits(w) == frozen_interval_splits(w), w
        assert ad._cuts(w) == tuple(
            b[-1] for b in ad.interval_splits(w)[0]), w


def test_eta_bijection():
    for n in range(1, 7):
        seen = set()
        for pi0 in sp.irreducible_partitions(n):
            w, pi = ad.eta(pi0)
            assert wd.is_reduced(w)
            assert ad.is_monotone(pi, w) and sp.is_irreducible(pi)
            seen.add((w, pi))
        total = sum(len(ad.enumerate_adapted(w, 'monotone_irr'))
                    for w in wd.enumerate_words(n))
        assert len(seen) == total == len(sp.irreducible_partitions(n))
    # the Catalan count, independent of both partition enumerators
    for n in range(1, 11):
        total = sum(len(ad.enumerate_adapted(w, 'monotone_irr'))
                    for w in wd.enumerate_words(n))
        assert total == comb(2 * n - 2, n - 1) // n


def test_labelings_of():
    out = ad.labelings_of(((1, 4), (2, 3)))
    assert len(out['L']) == 4
    assert out['L0'] == [(1, 2, 2, 1), (2, 1, 1, 2)]


def frozen_labelings_of(pi):
    """labelings_of as written when L0 was filtered from L by
    chains_alternate."""
    pi = sp.normalize(pi)
    n = sp.ground_size(pi)
    big = []
    small = []
    for mask in range(1 << len(pi)):
        ell = [0] * n
        for i, b in enumerate(pi):
            for p in b:
                ell[p - 1] = 1 if mask >> i & 1 else 2
        ell = tuple(ell)
        big.append(ell)
        if ad.chains_alternate(pi, ell):
            small.append(ell)
    return {'L': sorted(big), 'L0': sorted(small)}


def test_labelings_of_matches_chains_alternate_filter():
    count = 0
    for n in range(1, 8):
        for w in wd.enumerate_words(n):
            for pi in ad.enumerate_adapted(w, 'all'):
                assert ad.labelings_of(pi) == frozen_labelings_of(pi), pi
                count += 1
    assert count == 1864
    # blocks given in any order, as lists
    assert ad.labelings_of([[2, 3], [4, 1]]) == \
        frozen_labelings_of(((1, 4), (2, 3)))


def poset_leq(a, b):
    """The order of poset_ncn: refinement of the partitions and the
    letterwise order of the words."""
    (pi, w), (rho, u) = a, b
    return all(x <= y for x, y in zip(w, u)) and sp.refines(pi, rho)


def test_poset_vertices():
    verts = ad.poset_ncn(3)
    assert len(verts) == sum(
        len(ad.enumerate_adapted(w, 'all')) for w in wd.enumerate_words(3))
    assert poset_leq(verts[0], verts[0])


def monotone_by_definition(pi, w):
    """Monotone adaptedness with its own nesting scan after is_adapted."""
    if not ad.is_adapted(pi, w):
        return False
    base = min(w)
    for v, (_o, depth) in sp.nesting(pi).items():
        sub = ad.block_subword(w, v)
        if len(set(sub)) != 1 or depth != sub[0] - base + 1:
            return False
    return True


def test_is_monotone_matches_definition():
    for n in range(1, 7):
        family = sp.noncrossing_partitions(n)
        for w in iproduct((1, 2, 3), repeat=n):
            mono = [pi for pi in family if monotone_by_definition(pi, w)]
            assert [pi for pi in family if ad.is_monotone(pi, w)] == mono
            if wd.is_motzkin(w):
                assert ad.enumerate_adapted(w, 'monotone') == mono
                assert ad.enumerate_adapted(w, 'monotone_irr') == \
                    [pi for pi in mono if sp.is_irreducible(pi)]


# The filter over NC(n), the triple-scan hasse and the labeled classes
# as first written, kept as the reference for the generated adapted
# classes, for covers taken from up-sets or pair bitsets and for the
# monotone labeled class taken from the monotone class. The filter
# tests adaptedness once per partition and monotonicity only on the
# adapted ones, and reads irreducibility off each class.

def frozen_adapted_classes(w):
    """The adapted partitions of w of each class (all, irr, monotone,
    monotone_irr), as a filter over the noncrossing partitions of [n]."""
    w = tuple(w)
    adapted = [p for p in sp.noncrossing_partitions(len(w))
               if ad.is_adapted(p, w)]
    monotone = [p for p in adapted if ad.is_monotone(p, w)]
    return {'all': adapted,
            'irr': [p for p in adapted if sp.is_irreducible(p)],
            'monotone': monotone,
            'monotone_irr': [p for p in monotone if sp.is_irreducible(p)]}


# is_adapted and is_monotone as written before the one-scan predicate,
# kept as its reference: the nesting map, a check of each block
# subword, a bisect per block for its gap and a dict of gap letters.

def frozen_adapted_nesting(pi, w):
    """The nesting map of pi if pi is adapted to w, else None."""
    try:
        nest = sp.nesting(pi)
    except ValueError:
        return None
    for v in pi:
        sub = ad.block_subword(w, v)
        if sub[0] != sub[-1] or sub[0] != min(sub) or any(
                abs(a - b) > 1 for a, b in zip(sub, sub[1:])):
            return None
    letter = {}
    for v, (outer, depth) in nest.items():
        h = w[v[0] - 1]
        if depth > h:
            return None
        gap = None
        if outer is not None:
            i = bisect_left(outer, v[0])
            gap = (outer, i)
            if h < max(w[outer[i - 1] - 1], w[outer[i] - 1]):
                return None
        if letter.setdefault(gap, h) != h:
            return None
    return nest


def frozen_monotone(nest, w):
    """Whether a partition with nesting map nest from
    frozen_adapted_nesting (None if not adapted) is monotone."""
    if nest is None:
        return False
    base = min(w)
    for v, (_o, depth) in nest.items():
        sub = ad.block_subword(w, v)
        if len(set(sub)) != 1 or depth != sub[0] - base + 1:
            return False
    return True


def test_adaptedness_scan_matches_frozen():
    # every NC(n) to n=6 and every set partition to n=5, crossing or not,
    # on every word over 1..3, Motzkin or not
    cases = 0
    for n in range(1, 7):
        family = sp.noncrossing_partitions(n)
        if n < 6:
            family += sp.enumerate_all(n)
        for w in iproduct((1, 2, 3), repeat=n):
            for pi in family:
                nest = frozen_adapted_nesting(pi, w)
                assert ad.is_adapted(pi, w) == (nest is not None), (pi, w)
                assert ad.is_monotone(pi, w) == frozen_monotone(nest, w), \
                    (pi, w)
                cases += 1
    assert cases == 121731


def frozen_hasse(vertices, leq):
    """Cover relations of a finite poset given by a comparison predicate."""
    edges = []
    for a in vertices:
        for b in vertices:
            if a == b or not leq(a, b):
                continue
            if any(c not in (a, b) and leq(a, c) and leq(c, b)
                   for c in vertices):
                continue
            edges.append((a, b))
    return edges


def test_enumerate_adapted_matches_frozen_filter():
    # every word over 1..3 to n=6 (enumerate_adapted does not validate
    # w), the Motzkin ones at n=7 and every reduced word to n=8
    cases = [w for n in range(1, 8) for w in iproduct((1, 2, 3), repeat=n)
             if n < 7 or wd.is_motzkin(w)]
    cases += wd.enumerate_words(8)
    for w in cases:
        want = frozen_adapted_classes(w)
        for cls in ('all', 'irr', 'monotone', 'monotone_irr'):
            assert ad.enumerate_adapted(w, cls) == want[cls], (w, cls)
    with pytest.raises(ValueError, match='unknown class'):
        ad.enumerate_adapted((1, 1), 'crossing')
    with pytest.raises(ValueError, match='n must be >= 1'):
        ad.enumerate_adapted(())


@lru_cache(maxsize=1024)
def frozen_run_shapes(key):
    """The grammar listing every first block of a run whole: the
    reference for the step form behind ad.run_shapes."""
    if not frozen_opens(key):
        return ()
    letters, depth, bridge, base, irr = key
    h, n = letters[0], len(letters)

    def run(i, j, depth, bridge):
        # the key of the run on letters i+1..j, None if it has no partition
        sub = (letters[i:j], depth, bridge, base, False)
        return sub if frozen_opens(sub) and frozen_run_shapes(sub) else None

    shapes = []
    stack = [((1,), ())]  # a recursive closure would leave a ref cycle
    while stack:
        block, gaps = stack.pop()
        last = block[-1]
        x = letters[last - 1]
        if x == h and (last == n or not irr and letters[last] == h):
            rest = run(last, n, depth, bridge) if last < n else None
            if last == n or rest:
                shapes.append((block, gaps, rest))
        grown = []
        for q in range(last + 1, n + 1):
            if q > last + 1 and letters[q - 2] < letters[last]:
                break  # so would every longer gap hold a letter below its own
            y = letters[q - 1]
            if y < h or abs(y - x) > 1 or base is not None and y != h:
                continue
            gap = run(last, q - 1, depth + 1, max(x, y)) if q > last + 1 \
                else None
            if q == last + 1 or gap:
                grown.append((block + (q,), gaps + (gap,)))
        stack += reversed(grown)
    return tuple(shapes)


def frozen_opens(key):
    """Whether a run's first letter is at least its bridge and depth, and
    the letter its depth fixes for monotone blocks."""
    letters, depth, bridge, base, _irr = key
    h = letters[0]
    return bridge <= h >= depth and (base is None or depth == h - base + 1)


def test_run_shapes_match_frozen():
    keys = [(w, depth, bridge, base, irr)
            for n in range(1, 7) for w in iproduct((1, 2, 3), repeat=n)
            for depth in (1, 2) for bridge in (0, 1, 2)
            for base in (None, min(w)) for irr in (False, True)]
    for key in keys:
        assert ad.run_shapes(key) == frozen_run_shapes(key), key
    assert len(keys) == 26208


def frozen_enumerate_adapted(w, cls='all'):
    """The run fold with a memo of its own for each call: the reference
    for the fold kept across calls."""
    w = tuple(w)

    @lru_cache(maxsize=None)
    def partitions(key, at):
        out = []
        for block, gaps, rest in frozen_run_shapes(key):
            fills = [partitions(g, at + p) for p, g in zip(block, gaps) if g]
            if rest:
                fills.append(partitions(rest, at + block[-1]))
            head = (tuple([at + p for p in block]),)
            out += [head + sum(parts, ()) for parts in iproduct(*fills)]
        return out

    base = min(w) if cls.startswith('monotone') else None
    out = sorted(partitions((w, 1, 0, base, cls.endswith('irr')), 0))
    del partitions  # it refers to itself: free its memo now
    return out


def test_long_run_is_filled_without_recursion():
    # a block through 1,200 letters: its states are filled right to left
    n = 1200
    assert ad.enumerate_adapted((1,) * n, 'monotone_irr') == \
        [(tuple(range(1, n + 1)),)]


def test_enumerate_adapted_matches_frozen_closure():
    cases = [(w, cls) for n in range(1, 9) for w in wd.enumerate_words(n)
             for cls in ('all', 'irr', 'monotone', 'monotone_irr')]
    want = {case: frozen_enumerate_adapted(*case) for case in cases}
    caches = (ad._partitions, ad._moves, ad._steps)
    for case in cases:  # cold: nothing left by another word
        for cache in caches:
            cache.cache_clear()
        assert ad.enumerate_adapted(*case) == want[case], case
    for order in (cases, cases[::-1]):  # warm: runs left by other words
        for cache in caches:
            cache.cache_clear()
        for case in order + order:
            assert ad.enumerate_adapted(*case) == want[case], case
    assert all(cache.cache_info().maxsize is not None for cache in caches)
    w = (1, 2, 2, 1)
    ad.enumerate_adapted(w).append('junk')
    assert 'junk' not in ad.enumerate_adapted(w)


# NC(w) written from its definition, one condition per function, with
# its own nesting and no call into adapted: an oracle for the generator
# that shares neither code nor predicate with it.

def outer_blocks(pi, v):
    """The blocks that enclose the block v."""
    return [u for u in pi if u[0] < v[0] and v[-1] < u[-1]]


def gap_of(pi, v):
    """The nearest outer block of v and the position of that block just
    before v; (None, None) at top level."""
    outer = outer_blocks(pi, v)
    if not outer:
        return None, None
    u = max(outer, key=lambda b: b[0])
    return u, max(p for p in u if p < v[0])


def motzkin_block_subwords(pi, w):
    for v in pi:
        sub = [w[p - 1] for p in v]
        if sub[0] != sub[-1] or min(sub) != sub[0] or any(
                abs(a - b) > 1 for a, b in zip(sub, sub[1:])):
            return False
    return True


def depth_bounded(pi, w):
    return all(1 + len(outer_blocks(pi, v)) <= w[v[0] - 1] for v in pi)


def bridges_below(pi, w):
    for v in pi:
        u, left = gap_of(pi, v)
        if u is not None:
            right = min(p for p in u if p > v[-1])
            if w[v[0] - 1] < max(w[left - 1], w[right - 1]):
                return False
    return True


def equal_letters_per_gap(pi, w):
    letter = {}
    for v in pi:
        if letter.setdefault(gap_of(pi, v), w[v[0] - 1]) != w[v[0] - 1]:
            return False
    return True


def adapted_by_definition(pi, w):
    return all(cond(pi, w) for cond in (
        motzkin_block_subwords, depth_bounded, bridges_below,
        equal_letters_per_gap))


def test_enumerate_adapted_matches_definition():
    words = 0
    for n in range(1, 8):
        family = sp.noncrossing_partitions(n)
        for w in wd.enumerate_words(n):
            assert ad.enumerate_adapted(w, 'all') == [
                pi for pi in family if adapted_by_definition(pi, w)], w
            words += 1
    assert words == 89
    # each condition rejects a partition the others accept
    w = (1, 2, 2, 1)
    for pi, cond in ((((1, 2, 3, 4),), None),
                     (((1, 2), (3, 4)), motzkin_block_subwords),
                     (((1, 4), (2,), (3,)), None),
                     (((1, 4), (2, 3)), None)):
        assert adapted_by_definition(pi, w) == (cond is None), pi
        if cond is not None:
            assert not cond(pi, w)
    assert not depth_bounded(((1, 4), (2, 3)), (1, 1, 1, 1))
    assert not bridges_below(((1, 2, 4, 5), (3,)), (1, 2, 1, 2, 1))
    assert not equal_letters_per_gap(((1,), (2, 3)), (1, 2, 2))


def test_hasse_matches_frozen():
    for n in range(1, 7):
        for w in wd.enumerate_words(n):
            verts = ad.enumerate_adapted(w, 'all')
            want = frozen_hasse(verts, sp.refines)
            assert ad.hasse([(pi, w) for pi in verts]) == \
                [((a, w), (b, w)) for a, b in want], w
            assert ad.hasse_adapted(w) == want, w
    for n in range(1, 6):
        for irr in (False, True):
            verts = ad.poset_ncn(n, irr)
            assert ad.hasse(verts) == frozen_hasse(verts, poset_leq), \
                (n, irr)
