import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from ncmotzkin import acceptance as ac
from ncmotzkin import adapted as ad
from ncmotzkin import convolution as cv
from ncmotzkin import cumulants as cm
from ncmotzkin import partitions as sp
from ncmotzkin import replicas as rp
from ncmotzkin import words as wd
from ncmotzkin.cumulants import Poly, ZERO, beta_sym


def bernoulli(var='x'):
    # symmetric +-1 coin: moments alternate 0, 1
    return cv.univariate_distribution(
        [0, 1, 0, 1, 0, 1], var)


def B(label, *idx):
    return beta_sym(label, tuple(f'a{i}' for i in idx))


def b2m(p):
    return cm.expand_symbols(
        p, lambda s: cm.moment_to_boolean(s[1], s[2])
        if s[0] == 'beta' else Poly({(s,): 1}))


def swap_labels(expr):
    return Poly({tuple(sorted((k, 3 - l, v) for k, l, v in mono)): c
                 for mono, c in cm.raw_terms(expr).items()})


def test_distribution_validation():
    with pytest.raises(ValueError):
        cv.Distribution(('x', 'x'), 1, {('x',): 1})
    with pytest.raises(ValueError):
        cv.Distribution(('x',), 2, {('x',): 0})
    # the error names the first missing word in lexicographic order
    with pytest.raises(ValueError, match='missing moment for yx$'):
        cv.Distribution(('x', 'y'), 2, {('x',): 0, ('y',): 0,
                                        ('x', 'x'): 1, ('x', 'y'): 0})
    # '1' is the unit letter of the moment symbols
    with pytest.raises(ValueError, match='reserved'):
        cv.Distribution(('1',), 2, {('1',): 5, ('1', '1'): 7})
    with pytest.raises(ValueError, match='reserved'):
        cv.Distribution(('x', '1'), 0, {})
    mu = bernoulli()
    with pytest.raises(ValueError):
        mu.moment(('y',))
    with pytest.raises(ValueError):
        mu.moment(('x',) * 7)
    assert mu.moment(()) == 1
    assert mu.moment('xx') == mu.moment(['x', 'x']) == 1


def test_distribution_json_round_trip():
    mu = bernoulli()
    again = cv.Distribution.from_json(mu.to_json())
    assert again.moments == mu.moments
    assert again.alphabet == mu.alphabet
    # one-character names keep the original ''-joined keys
    readme = {'alphabet': ['x'], 'order': 4,
              'moments': {'x': '0', 'xx': '1', 'xxx': '0', 'xxxx': '1'}}
    assert cv.Distribution.from_json(readme).to_json() == readme
    with pytest.raises(ValueError):
        cv.Distribution(('a,b',), 1, {('a,b',): 0})


@settings(max_examples=50, deadline=None)
@given(st.lists(st.text('ab1', min_size=1, max_size=3).filter(
                    lambda v: v != cm.UNIT),
                min_size=1, max_size=3, unique=True),
       st.integers(0, 3), st.data())
def test_distribution_json_round_trip_names(alphabet, order, data):
    moments = {word: data.draw(st.fractions(max_denominator=10))
               for n in range(1, order + 1)
               for word in iproduct(alphabet, repeat=n)}
    mu = cv.Distribution(alphabet, order, moments)
    again = cv.Distribution.from_json(json.loads(json.dumps(mu.to_json())))
    assert again.alphabet == mu.alphabet
    assert again.order == mu.order
    assert again.moments == mu.moments


def test_three_letter_difference():
    want = B(1, 2) * B(2, 1, 3) + B(2, 2) * B(1, 1, 3)
    assert cv.delta_sym(('a1', 'a2', 'a3')) == b2m(want)


def test_delta_is_the_sum_of_the_non_constant_parts():
    # delta_sym is the total minus the constant word's part; its
    # definition sums the parts of the other words
    for n in range(1, 7):
        for names in (('x',) * n, tuple(f'a{i + 1}' for i in range(n)),
                      tuple('xy'[i % 2] for i in range(n))):
            want = cm._sum(cv.boxplus_w_sym(w, names, 'monotone')
                           for w in wd.enumerate_words(n) if w != (1,) * n)
            assert cv.delta_sym(names) == want, names


def test_four_letter_parts():
    def total_beta(w):
        out = ZERO
        for _pi, _ell, val in cv.boxplus_w_beta_terms(
                w, ('a1', 'a2', 'a3', 'a4')):
            out = out + val
        return out

    half = B(1, 1, 2, 4) * B(2, 3) + B(1, 1) * B(1, 2, 4) * B(2, 3) \
        + B(2, 1) * B(1, 2, 4) * B(2, 3)
    assert total_beta((1, 1, 2, 1)) == half + swap_labels(half)
    half = B(1, 1, 3, 4) * B(2, 2) + B(1, 1, 3) * B(2, 2) * B(1, 4) \
        + B(1, 1, 3) * B(2, 2) * B(2, 4)
    assert total_beta((1, 2, 1, 1)) == half + swap_labels(half)
    half = B(1, 1, 4) * (B(2, 2, 3) + B(2, 2) * B(2, 3))
    assert total_beta((1, 2, 2, 1)) == half + swap_labels(half)


def swap_rep(x):
    # the label swap on the replica algebra: the two strings of every
    # monomial exchanged and the labels of its coefficient swapped
    return rp.Rep({(s2, s1): swap_labels(c)
                   for (s1, s2), c in rp.raw_terms(x).items()})


def swap_belement(b):
    return rp.BElement({j: swap_labels(c) for j, c in b.comp.items()})


def test_library_mirror_matches_swap_labels():
    for n in range(1, 5):
        names = [f'a{i + 1}' for i in range(n)]
        ell = tuple(1 + i % 2 for i in range(n))
        p = cv.free_product_sym(list(zip(names, ell)))
        assert cm.mirror(p) == swap_labels(p), n
        for w in wd.enumerate_words(n):
            b = rp.B_w_rep(w, ac._replicas(w, ell))
            assert b.mirror() == swap_belement(b), w
    # labels other than 1 and 2 are kept
    assert cm.mirror(cm.m_sym(0, ('x',)) * B(1, 1)) == \
        cm.m_sym(0, ('x',)) * B(2, 1)


def test_label_swap_is_a_symmetry_of_the_replica_algebra():
    # the identity the mirrored replica and nested routes rest on, checked
    # on the shapes of the replica lemmas, apart from the routes: the swap
    # maps the replicas of one labeling to those of the swapped labeling,
    # fixes the projections, commutes with E, and B_w and K_w of all-label-2
    # replicas are the swap of those of all-label-1 replicas
    for j in (1, 2, 3):
        assert swap_rep(rp.p_proj(j)) == rp.p_proj(j)
    for n in range(1, 6):
        for w in ac._am_words(n):
            for ell in iproduct((1, 2), repeat=n):
                A = ac._replicas(w, ell)
                M = ac._replicas(w, tuple(3 - l for l in ell))
                assert [swap_rep(a) for a in A] == M
                x = rp.rep_product(A)
                assert rp.expectation(swap_rep(x)) == \
                    swap_belement(rp.expectation(x)), (w, ell)
                for k in range(n - 1):
                    X = A[:k] + [A[k] * rp.p_proj(w[k])] + A[k + 1:]
                    x = rp.rep_product(X)
                    assert rp.expectation(swap_rep(x)) == \
                        swap_belement(rp.expectation(x)), (w, ell, k)
            ones = ac._replicas(w, (1,) * n)
            twos = ac._replicas(w, (2,) * n)
            assert rp.B_w_rep(w, twos) == \
                swap_belement(rp.B_w_rep(w, ones)), w
            assert rp.K_w_rep(w, twos) == \
                swap_belement(rp.K_w_rep(w, ones)), w


def test_part_resolves_into_scalar_cumulants():
    def lin(word, idx):
        out = ZERO
        for label in (1, 2):
            out = out + cm.motzkin_k(word, [(f'a{i}', label) for i in idx])
        return out

    resolved = lin((1, 2, 2, 1), (1, 2, 3, 4)) \
        + lin((1, 2, 1), (1, 2, 4)) * lin((2,), (3,)) \
        + lin((1, 2, 1), (1, 3, 4)) * lin((2,), (2,)) \
        + lin((1, 1), (1, 4)) * lin((2, 2), (2, 3)) \
        + lin((1, 1), (1, 4)) * lin((1,), (2,)) * lin((1,), (3,))
    got = cv.boxplus_w_sym((1, 2, 2, 1), ('a1', 'a2', 'a3', 'a4'))
    assert got == b2m(resolved)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.sampled_from(wd.enumerate_words(n))))
def test_three_routes_agree(w):
    names = tuple(f'a{i + 1}' for i in range(len(w)))
    r1 = cv.boxplus_w_sym(w, names, 'replica')
    r2 = cv.boxplus_w_sym(w, names, 'monotone')
    r3 = cv.boxplus_w_sym(w, names, 'nested')
    assert r1 == r2 == r3
    # three separate builds, not one cached part under three routes
    assert r1 is not r2 and r2 is not r3 and r1 is not r3


def test_totals_match_oracles():
    for n in range(1, 6):
        names = tuple(f'a{i + 1}' for i in range(n))
        free = ZERO
        boolean = ZERO
        for ell in iproduct((1, 2), repeat=n):
            free = free + cv.free_product_sym(list(zip(names, ell)))
            boolean = boolean + cv.boolean_product_sym(
                list(zip(names, ell)))
        assert cv.boxplus_total_sym(names) == free
        assert cv.boxplus_w_sym((1,) * n, names) == boolean


def test_bernoulli_convolutions():
    mu = bernoulli()
    # free: arcsine moments 0, 2, 0, 6; Boolean: 0, 2, 0, 4
    assert cv.boxplus_total(mu, mu, ('x',) * 2) == 2
    assert cv.boxplus_total(mu, mu, ('x',) * 4) == 6
    assert cv.uplus_total(mu, mu, ('x',) * 4) == 4
    # the Boolean total reads the cached monotone part of 1^n
    cv._w_part.cache_clear()
    assert cv.uplus_total(mu, mu, ('x',) * 5) == 0
    cv.boxplus_w_sym((1,) * 5, ('x',) * 5, 'monotone')
    assert cv._w_part.cache_info().hits == 1
    assert cv.delta(mu, mu, ('x',) * 4) == 2
    parts = cv.decompose(mu, mu, ('x',) * 4)
    assert sum(parts.values()) == 6
    assert parts[(1, 1, 1, 1)] == 4


def test_boxplus_w_validates():
    mu = bernoulli()
    with pytest.raises(ValueError):
        cv.boxplus_w(mu, mu, ('x', 'x'), (2, 2))
    with pytest.raises(ValueError):
        cv.boxplus_w(mu, mu, ('x',), (1, 1))
    nu = cv.univariate_distribution([1], 'y')
    with pytest.raises(ValueError):
        cv.boxplus_total(mu, nu, ('x',))
    # every monomial letter must be in the alphabet; '1' never is
    calls = [lambda m: cv.boxplus_total(mu, mu, m),
             lambda m: cv.uplus_total(mu, mu, m),
             lambda m: cv.delta(mu, mu, m),
             lambda m: cv.decompose(mu, mu, m),
             lambda m: cv.boxplus_w(mu, mu, m, (1, 1)),
             lambda m: cv.free_product_moment(mu, mu, list(zip(m, (1, 2)))),
             lambda m: cv.boolean_product_moment(mu, mu,
                                                 list(zip(m, (1, 2))))]
    for call in calls:
        for mono, bad in ((('x', '1'), '1'), (('x', 'z'), 'z'),
                          (('1', 'x'), '1')):
            with pytest.raises(ValueError,
                               match=f"unknown variable '{bad}'"):
                call(mono)


def test_evaluate_rejects_non_moment_symbols():
    mu = bernoulli()
    with pytest.raises(ValueError):
        cv.evaluate(beta_sym(1, ('x',)), mu, mu)
    # words missing from the table fall back to Distribution.moment
    with pytest.raises(ValueError, match="unknown variable 'y'"):
        cv.evaluate(cm.m_sym(1, ('x', 'y')), mu, mu)
    with pytest.raises(ValueError, match='exceeds order'):
        cv.evaluate(cm.m_sym(2, ('x',) * 7), mu, mu)
    # only labels 1 and 2 name a distribution
    for label in (0, 3):
        with pytest.raises(ValueError, match=f'label {label}'):
            cv.evaluate(cm.m_sym(label, ('x',)), mu, mu)


def seeded_pair(seed, alphabet=('x', 'y'), order=4):
    rng = random.Random(seed)

    def table():
        return {word: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                for n in range(1, order + 1)
                for word in iproduct(alphabet, repeat=n)}

    return (cv.Distribution(alphabet, order, table()),
            cv.Distribution(alphabet, order, table()))


def frozen_evaluate(poly, mu1, mu2):
    # evaluate as written before moments were looked up in the table
    mus = {1: mu1, 2: mu2}
    total = Fraction(0)
    for mono, coeff in cm.raw_terms(poly).items():
        val = Fraction(coeff)
        for kind, label, args in mono:
            if kind != 'm':
                raise ValueError(f'cannot evaluate symbol kind {kind!r}')
            val *= mus[label].moment(args)
        total += val
    return total


def test_evaluate_matches_frozen():
    third = cm.Poly.const(Fraction(1, 3))
    for seed in (1, 2):
        mu1, mu2 = seeded_pair(seed)
        for n in range(1, 5):
            for mono in iproduct('xy', repeat=n):
                polys = [cv.boxplus_total_sym(mono),
                         cv.boxplus_total_sym(mono) + third]
                polys += [cv.boxplus_w_sym(w, mono)
                          for w in wd.enumerate_words(n)]
                for p in polys:
                    got = cv.evaluate(p, mu1, mu2)
                    assert got == frozen_evaluate(p, mu1, mu2), (mono, p)
                    assert type(got) is Fraction


EVAL_WORDS = [w for n in range(1, 4) for w in iproduct('xy', repeat=n)]
MOMENT_VALUES = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(MOMENT_VALUES, min_size=len(EVAL_WORDS),
                         max_size=len(EVAL_WORDS)), min_size=2, max_size=2),
       st.dictionaries(
           st.lists(st.tuples(st.just('m'), st.sampled_from((1, 2)),
                              st.sampled_from(EVAL_WORDS)),
                    max_size=4).map(lambda m: tuple(sorted(m))),
           st.one_of(st.integers(-20, 20), st.fractions(max_denominator=12)),
           max_size=8))
def test_evaluate_matches_frozen_on_random_polys(tables, terms):
    mu1, mu2 = (cv.Distribution(('x', 'y'), 3, dict(zip(EVAL_WORDS, t)))
                for t in tables)
    poly = Poly(terms)
    got = cv.evaluate(poly, mu1, mu2)
    assert type(got) is Fraction
    assert got == frozen_evaluate(poly, mu1, mu2)


def test_cached_parts_match_fresh_builds():
    names = ('x', 'y', 'y', 'x')
    mu1, mu2 = seeded_pair(3)
    routes = ('replica', 'monotone', 'nested')
    keys = [(w, names[:n], route) for n in range(1, 5)
            for w in wd.enumerate_words(n) for route in routes]
    fresh = {key: cv._w_part.__wrapped__(*key) for key in keys}
    cached = {key: cv._w_part(*key) for key in keys}
    for key in keys:
        assert cached[key] == fresh[key], key
        # the shared part as an operand of arithmetic
        p = cached[key]
        assert (p + p) * p - p * (p + p) == ZERO
        assert cv._w_part(*key) is p
        # the public call reads the part cached on the literal names
        w, names_w, route = key
        assert cv.boxplus_w_sym(list(w), list(names_w), route) is p
    for n in range(1, 5):
        for route in routes:
            cv.decompose(mu1, mu2, names[:n], route)
            cv.boxplus_total_sym(names[:n], route)
            cv.delta_sym(names[:n])
    for key in keys:
        assert cv._w_part(*key) == fresh[key], key
        assert cached[key] == frozen_w_part(*key), key
    # the route is part of the key: a bad one is not served from the cache
    with pytest.raises(ValueError, match='unknown route'):
        cv.boxplus_w_sym((1, 1), ('x', 'y'), 'bogus')


# The w-part build as written when it was keyed on the literal names,
# kept unchanged as the reference. Its nested route calls K_pi_rep, which
# tests/test_replicas.py checks against the recursion it replaced. Its
# families are filters of NC(n) by the predicates, which share no code
# with the grammar adapted.run_shapes that the routes fold.

@lru_cache(maxsize=None)
def filtered_family(w, cls='all'):
    keep = ad.is_monotone if cls == 'monotone' else ad.is_adapted
    return [pi for pi in sp.noncrossing_partitions(len(w)) if keep(pi, w)]


def frozen_w_part(w, variables, route):
    n = len(w)
    if len(variables) != n:
        raise ValueError('word/monomial length mismatch')
    if n == 0:
        return cm.ONE
    if route == 'replica':
        out = ZERO
        for ell in iproduct((1, 2), repeat=n):
            x = rp.replica_word(variables, ell, w)
            out = out + rp.zeta_E(x)
        return out
    if route == 'monotone':
        return frozen_monotone_part(w, variables)
    if route == 'nested':
        out = ZERO
        for pi in filtered_family(w):
            for ell in ad.labelings_of(pi)['L']:
                args = [rp.replica(v, l, j)
                        for v, l, j in zip(variables, ell, w)]
                out = out + rp.K_pi_rep(w, pi, args).zeta()
        return out
    raise ValueError(f'unknown route {route!r}')


def frozen_monotone_part(w, variables):
    # the monotone route as written before it was summed over sibling
    # runs: every monotone partition, every alternating labeling
    out = ZERO
    for pi in filtered_family(w, 'monotone'):
        for ell in ad.labelings_of(pi)['L0']:
            out = out + rp.beta_hat_pi(pi, ell, variables)
    return out


ROUTES = ('replica', 'monotone', 'nested')


def test_monotone_part_matches_enumeration():
    for n in range(1, 8):
        patterns = {tuple(f'a{i + 1}' for i in range(n)), ('x',) * n,
                    tuple('xy'[i % 2] for i in range(n)),
                    tuple('x1y'[i % 3] for i in range(n))}
        for w in wd.enumerate_words(n):
            for names in patterns:
                assert cv.boxplus_w_sym(w, names, 'monotone') == \
                    frozen_monotone_part(w, names), (w, names)


def test_parts_reject_words_that_are_not_reduced():
    mu = bernoulli()
    for w in ((2, 2), (2,), (1, 3, 1), (1, 2), (1, 2, 2), (0, 0)):
        names = ('x',) * len(w)
        for route in ROUTES:
            with pytest.raises(ValueError,
                               match='is not a reduced Motzkin word'):
                cv.boxplus_w_sym(w, names, route)
            with pytest.raises(ValueError,
                               match='is not a reduced Motzkin word'):
                cv.boxplus_w(mu, mu, names, w, route)
    # the length is checked first, and the empty word is the unit
    with pytest.raises(ValueError, match='length mismatch'):
        cv.boxplus_w_sym((2, 2), ('x',))
    assert cv.boxplus_w_sym((), ()) == cm.ONE
    assert cv.boxplus_w(mu, mu, (), ()) == 1


def test_parts_match_frozen_build():
    words = [w for n in range(1, 5) for w in wd.enumerate_words(n)]
    words.append((1, 2, 2, 2, 1))
    for w in words:
        n = len(w)
        for names in (tuple(f'a{i + 1}' for i in range(n)),
                      ('y', 'x', 'y', 'x', 'x')[:n]):
            for route in ROUTES:
                assert cv.boxplus_w_sym(w, names, route) == frozen_w_part(
                    w, names, route), (w, names, route)
    # the replica route sums half the labelings and mirrors the sum; the
    # frozen build sums them all
    for w in wd.enumerate_words(5):
        for names in (('a1', 'a2', 'a3', 'a4', 'a5'),
                      ('y', 'x', 'y', 'x', 'x')):
            assert cv.boxplus_w_sym(w, names, 'replica') == frozen_w_part(
                w, names, 'replica'), (w, names)


def frozen_nested_part(w, pattern):
    # the nested route as written before it was summed over sibling runs:
    # every adapted partition, every block-constant labeling, one memo
    nested_K = rp.Forests({
        (p, l): (j, rp.replica(v, l, j))
        for p, (v, j) in enumerate(zip(pattern, w), start=1)
        for l in (1, 2)})
    out = ZERO
    for pi in filtered_family(w):
        plan = sp.nesting_plan(pi)
        for ell in ad.labelings_of(pi)['L']:
            forest = tuple(((p, l), ()) for p, l in enumerate(ell, 1))
            out = out + nested_K.nested(plan, forest).zeta()
    return out


def test_nested_part_matches_frozen_at_five_and_six():
    # n=6 is the first length where the sibling rule per gap matters
    for n in (5, 6):
        for names in (('x',) * n, tuple(f'a{i + 1}' for i in range(n))):
            for w in wd.enumerate_words(n):
                got = cv.boxplus_w_sym(w, names, 'nested')
                assert got == frozen_w_part(w, names, 'nested'), (w, names)
                if n == 5:
                    assert got == frozen_nested_part(w, names), (w, names)


class CountingInversion:
    """Stand-in for replicas.Inversion whose K of a tuple of atoms is the
    product over them of the constant terms of the atom's Rep
    coefficients, on the unit: 1 for a replica, and for a replica times
    an embedded gap run the count that run carries. The nested part then
    counts each block twice, once per label."""

    def __init__(self, atoms):
        self.atoms = atoms

    def K(self, keys):
        out = 1
        for atom in keys:
            out *= sum(c.terms.get((), 0)
                       for c in self.atoms[atom][1].terms.values())
        return rp.BElement({0: out})


def test_nested_runs_grow_exactly_the_adapted_partitions(monkeypatch):
    # the sum of 2^|pi| over NC(w) checks every pruning rule of the run:
    # a run that grows a block that is not adapted, even one whose nested
    # cumulant vanishes, adds to the count
    monkeypatch.setattr(rp, 'Inversion', CountingInversion)
    words = 0
    for n in range(1, 8):
        for w in wd.enumerate_words(n):
            want = sum(2 ** len(pi) for pi in filtered_family(w))
            assert cv._nested_part(w, ('x',) * n) == Poly.const(want), w
            words += 1
    assert words == 89


def test_shared_monotone_runs_give_the_same_part():
    w = (1, 2, 2, 1, 2, 1)
    pattern = ('#1', '#2', '#1', '#1', '#2', '#3')
    build = cv._w_part.__wrapped__
    cv._monotone_run.cache_clear()
    first = build(w, pattern, 'monotone')
    cv._monotone_run.cache_clear()
    second = build(w, pattern, 'monotone')
    assert first == second == frozen_monotone_part(w, pattern)
    assert first is not second
    # a second word reads the runs the first one left
    hits = cv._monotone_run.cache_info().hits
    build((1, 2, 2, 1, 1, 1), pattern, 'monotone')
    assert cv._monotone_run.cache_info().hits > hits


def test_grammar_entries_are_shared_by_words_and_consumers():
    grammar = ad.run_shapes
    assert grammar.cache_info().maxsize is not None
    w = (1, 2, 2, 1, 2, 1)
    pattern = ('#1', '#2', '#1', '#1', '#2', '#3')
    for route, cls in (('monotone', 'monotone'), ('nested', 'all')):
        grammar.cache_clear()
        ad._partitions.cache_clear()
        cv._monotone_run.cache_clear()
        cv._w_part.__wrapped__(w, pattern, route)
        left = grammar.cache_info()
        assert left.currsize > 0
        # the list of the same family finds every run the route left
        assert ad.enumerate_adapted(w, cls) == filtered_family(w, cls)
        after = grammar.cache_info()
        assert after.misses == left.misses, route
        assert after.hits > left.hits, route
    # a word that holds some of the runs builds only the others
    grammar.cache_clear()
    ad._partitions.cache_clear()
    ad.enumerate_adapted((1, 2, 2, 1, 1, 1), 'monotone')
    cold = grammar.cache_info().misses
    grammar.cache_clear()
    ad._partitions.cache_clear()
    cv._monotone_run.cache_clear()
    cv._w_part.__wrapped__(w, pattern, 'monotone')
    left = grammar.cache_info()
    assert ad.enumerate_adapted((1, 2, 2, 1, 1, 1), 'monotone') == \
        filtered_family((1, 2, 2, 1, 1, 1), 'monotone')
    assert grammar.cache_info().misses - left.misses < cold


def test_parts_match_frozen_build_on_every_names_tuple():
    # repeated names, the unit and names that look like pattern names
    frozen = {}
    for n in range(1, 5):
        words = wd.enumerate_words(n)
        for names in iproduct(('x', 'y', '1', '#1'), repeat=n):
            # all routes to n=3, the monotone one at n=4 (all: 12 s)
            for route in ROUTES if n < 4 else ('monotone',):
                for w in words:
                    want = frozen[w, names, route] = frozen_w_part(
                        w, names, route)
                    assert cv.boxplus_w_sym(w, names, route) == want, \
                        (w, names, route)
                total = cm._sum(frozen[w, names, route] for w in words)
                assert cv.boxplus_total_sym(names, route) == total, \
                    (names, route)
            delta = cm._sum(frozen[w, names, 'monotone'] for w in words
                            if w != (1,) * n)
            assert cv.delta_sym(names) == delta, names


def frozen_product_sym(labeled_word, partitions, cumulant):
    # convolution._product_sym as written before its block products went
    # through cumulants.block_sum, kept unchanged as the reference
    word = [(str(v), l) for v, l in labeled_word]
    n = len(word)
    if n == 0:
        return cm.ONE
    names = tuple(v for v, _l in word)
    labels = tuple(l for _v, l in word)
    return cm._sum(cm._prod(cumulant(labels[b[0] - 1],
                                     ad.block_subword(names, b))
                            for b in pi)
                   for pi in partitions(n)
                   if ad.block_labels_constant(pi, labels))


def test_product_sums_match_frozen():
    for n in range(6):
        for names in (('x',) * n, tuple(f'a{i + 1}' for i in range(n))):
            for ell in iproduct((1, 2), repeat=n):
                word = list(zip(names, ell))
                assert cv.free_product_sym(word) == frozen_product_sym(
                    word, sp.noncrossing_partitions, cm.moment_to_free)
                assert cv.boolean_product_sym(word) == frozen_product_sym(
                    word, sp.interval_partitions, cm.moment_to_boolean)


def test_free_product_is_linear_functional():
    # independent copies: mixed moments factor over the labels at order 2
    got = cv.free_product_sym([('a', 1), ('b', 2)])
    m = cm.m_sym
    assert got == m(1, ('a',)) * m(2, ('b',))
