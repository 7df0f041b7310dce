from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from ncmotzkin import adapted as ad
from ncmotzkin import partitions as sp

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_class_counts():
    for n in range(1, 8):
        assert len(sp.noncrossing_partitions(n)) == CATALAN[n]
        assert len(sp.interval_partitions(n)) == 2 ** (n - 1)
        assert len(sp.irreducible_partitions(n)) == CATALAN[n - 1]


def test_normalize_validates():
    assert sp.normalize([(3, 1), (2,)]) == ((1, 3), (2,))
    with pytest.raises(ValueError):
        sp.normalize([(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        sp.normalize([(1,), (3,)])
    with pytest.raises(ValueError, match='empty partition'):
        sp.normalize(())


def test_is_noncrossing():
    assert sp.is_noncrossing(((1, 3), (2,)))
    assert not sp.is_noncrossing(((1, 3), (2, 4)))


def test_interval_and_irreducible_predicates():
    assert sp.is_interval(((1, 2), (3,)))
    assert not sp.is_interval(((1, 3), (2,)))
    assert sp.is_irreducible(((1, 4), (2, 3)))
    assert not sp.is_irreducible(((1,), (2, 3, 4)))


def test_nesting_depths():
    nest = sp.nesting(((1, 4), (2, 3)))
    assert nest[(1, 4)] == (None, 1)
    assert nest[(2, 3)] == ((1, 4), 2)
    with pytest.raises(ValueError):
        sp.nesting(((1, 3), (2, 4)))


def test_refines():
    fine = ((1,), (2,), (3,))
    assert sp.refines(fine, ((1, 2, 3),))
    assert not sp.refines(((1, 2), (3,)), ((1, 3), (2,)))
    for pi, rho in ((((1,), (2,)), ((1,),)), (((1,),), ((1,), (2,))),
                    (((1,), (3,)), ((1, 2),))):
        with pytest.raises(ValueError, match='ground set mismatch'):
            sp.refines(pi, rho)


nc_pairs = st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.sampled_from(sp.noncrossing_partitions(n)),
                        st.sampled_from(sp.noncrossing_partitions(n))))


@settings(max_examples=200)
@given(nc_pairs)
def test_join_is_least_upper_bound(pair):
    pi, rho = pair
    n = sp.ground_size(pi)
    j = sp.join_nc(pi, rho)
    assert sp.refines(pi, j) and sp.refines(rho, j)
    for v in sp.noncrossing_partitions(n):
        if sp.refines(pi, v) and sp.refines(rho, v):
            assert sp.refines(j, v)


@given(nc_pairs)
def test_join_is_commutative(pair):
    pi, rho = pair
    assert sp.join_nc(pi, rho) == sp.join_nc(rho, pi)


def test_format_partition():
    assert sp.format_partition(((1, 3), (2,))) == '{{1,3},{2}}'


# Oracles written from the definitions; they share no code with the
# stack scan behind is_noncrossing and nesting, nor with the block-mask
# scan of join_nc.

def crosses(pi):
    """Some a < b < c < d with a, c in one block and b, d in another."""
    return any(a < b < c < d
               for u in pi for v in pi if u != v
               for a, c in combinations(u, 2)
               for b, d in combinations(v, 2))


def nc_by_definition(n):
    return [p for p in sp.enumerate_all(n) if not crosses(p)]


def nesting_by_definition(pi):
    """Outer block: the containing block of smallest span; depth: one
    more than the depth of the outer block."""
    def outer(v):
        around = [u for u in pi if u[0] < v[0] and v[-1] < u[-1]]
        return min(around, key=lambda u: u[-1] - u[0], default=None)

    def depth(v):
        return 1 if outer(v) is None else 1 + depth(outer(v))

    return {v: (outer(v), depth(v)) for v in pi}


def coarsens(rho, pi):
    return all(any(set(b) <= set(c) for c in rho) for b in pi)


def test_is_noncrossing_matches_definition():
    for n in range(1, 9):
        for pi in sp.enumerate_all(n):
            assert sp.is_noncrossing(pi) == (not crosses(pi)), pi


def test_nesting_matches_definition():
    for n in range(1, 10):
        for pi in nc_by_definition(n):
            nest = sp.nesting(pi)
            assert nest == nesting_by_definition(pi), pi
            kids = {o: sorted(v for v in pi if nest[v][0] == o)
                    for o in (None,) + pi}
            assert sp.siblings(nest) == kids, pi


def test_join_matches_brute_force():
    for n in range(1, 6):
        nc = nc_by_definition(n)
        for pi in nc:
            for rho in nc:
                uppers = [v for v in nc
                          if coarsens(v, pi) and coarsens(v, rho)]
                least = [v for v in uppers
                         if all(coarsens(u, v) for u in uppers)]
                assert [sp.join_nc(pi, rho)] == least, (pi, rho)


# join_nc as first written, by union-find on elements and a fresh
# canonical form and crossing scan after every merge, kept as the
# reference for the join on block masks.

def frozen_join_nc(pi, rho):
    n = sp.ground_size(pi)
    if sp.ground_size(rho) != n:
        raise ValueError('ground set mismatch')
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for p in (pi, rho):
        for b in p:
            for x in b[1:]:
                union(b[0], x)

    while True:
        groups = {}
        for x in range(1, n + 1):
            groups.setdefault(find(x), []).append(x)
        cur = sp.normalize(groups.values())
        crossing = sp._scan(cur)[1]
        if crossing is None:
            return cur
        union(crossing[0][0], crossing[1][0])


def test_join_matches_frozen():
    # every pair of NC(6), and every pair of set partitions to n=5,
    # whose join is the noncrossing closure of their common coarsening
    nc = sp.noncrossing_partitions(6)
    pairs = [(pi, rho) for pi in nc for rho in nc]
    for n in range(1, 6):
        every = sp.enumerate_all(n)
        pairs += [(pi, rho) for pi in every for rho in every]
    for pi, rho in pairs:
        assert sp.join_nc(pi, rho) == frozen_join_nc(pi, rho), (pi, rho)
    # blocks in any order, as lists
    assert sp.join_nc([[4, 2], [3, 1]], [[1], [2], [3], [4]]) == \
        frozen_join_nc([[4, 2], [3, 1]], [[1], [2], [3], [4]]) == \
        ((1, 2, 3, 4),)
    with pytest.raises(ValueError, match='ground set mismatch'):
        sp.join_nc(((1, 2),), ((1,), (2,), (3,)))


def test_generated_families_match_filters():
    for n in range(1, 10):
        every = sp.enumerate_all(n)
        nc = sorted(p for p in every if not crosses(p))
        irr = [p for p in nc if any(1 in b and n in b for b in p)]
        interval = sorted(p for p in every if sp.is_interval(p))
        assert sp.noncrossing_partitions(n) == nc
        assert sp.irreducible_partitions(n) == irr
        assert sp.interval_partitions(n) == interval
        for cls, want in (('all', sorted(every)), ('nc', nc),
                          ('nc_irr', irr), ('interval', interval)):
            assert sp.enumerate_partitions(n, cls) == want


# The growth of NC(n) and Int(n) from their members on [n-1], sorted at
# each step, and NC_irr(n) from NC(n-1): the reference for the
# first-block fold and for the grammar of NC(w) at its two ends.

def frozen_outer_blocks(pi):
    """Indices of the blocks of a noncrossing pi that no block encloses:
    those whose maximum exceeds the maxima of all blocks before them."""
    out = []
    top = 0
    for i, b in enumerate(pi):
        if b[-1] > top:
            top = b[-1]
            out.append(i)
    return out


def frozen_last_block(pi):
    return (len(pi) - 1,)


@lru_cache(maxsize=None)
def frozen_grown(n, takers):
    """Sorted partitions of [n]: each one of [n-1] of the same family
    with n added as a singleton or to one of the blocks `takers` names."""
    if n == 1:
        return (((1,),),)
    out = []
    for pi in frozen_grown(n - 1, takers):
        out.append(pi + ((n,),))
        out += [pi[:i] + (pi[i] + (n,),) + pi[i + 1:] for i in takers(pi)]
    return tuple(sorted(out))


def frozen_irreducible(n):
    if n == 1:
        return [((1,),)]
    return sorted((pi[0] + (n,),) + pi[1:]
                  for pi in frozen_grown(n - 1, frozen_outer_blocks))


def test_generated_families_match_frozen_growth():
    for n in range(1, 12):
        assert sp.noncrossing_partitions(n) == \
            list(frozen_grown(n, frozen_outer_blocks)), n
        assert sp.irreducible_partitions(n) == frozen_irreducible(n), n
    for n in range(1, 17):
        assert sp.interval_partitions(n) == \
            list(frozen_grown(n, frozen_last_block)), n
    # an interval's entry is NC of its length, shifted to its positions
    for lo in range(1, 6):
        for hi in range(lo, lo + 7):
            assert sp._nc(lo, hi) == tuple(
                tuple(tuple(x + lo - 1 for x in b) for b in pi)
                for pi in frozen_grown(hi - lo + 1, frozen_outer_blocks))
    assert sp._nc(4, 3) == ((),)


def test_adapted_grammar_ends_are_interval_and_noncrossing():
    # Int(n) = NC(1^n); NC(n) = NC(h^n) and NC_irr(n) = NC_irr(h^n)
    # exactly when h >= ceil(n/2), the deepest nesting of n positions
    for n in range(1, 11):
        assert ad.enumerate_adapted((1,) * n) == \
            list(frozen_grown(n, frozen_last_block)), n
        nc, irr = sp.noncrossing_partitions(n), frozen_irreducible(n)
        low = (n + 1) // 2
        for h in range(low, n + 1):
            assert ad.enumerate_adapted((h,) * n) == nc, (n, h)
            assert ad.enumerate_adapted((h,) * n, 'irr') == irr, (n, h)
        if n >= 3:
            assert ad.enumerate_adapted((low - 1,) * n) != nc, n
            assert ad.enumerate_adapted((low - 1,) * n, 'irr') != irr, n


def test_families_return_fresh_lists():
    families = (sp.noncrossing_partitions, sp.irreducible_partitions,
                sp.interval_partitions)
    for family in families:
        family(3).append('junk')
        assert 'junk' not in family(3)
        for n in (0, -1):
            with pytest.raises(ValueError, match='n must be >= 1'):
                family(n)
    with pytest.raises(ValueError, match='unknown class'):
        sp.enumerate_partitions(3, 'crossing')
