from bisect import bisect_left
from fractions import Fraction
from itertools import product as iproduct

import pytest

from ncmotzkin import acceptance as ac
from ncmotzkin import adapted as ad
from ncmotzkin import partitions as sp
from ncmotzkin import replicas as rp
from ncmotzkin.cumulants import ONE, ZERO, m_sym


def rep(var, label, j):
    return rp.replica(var, label, j)


def bh(label, *names):
    return rp.beta_hat(label, names)


def test_single_replica_moments():
    for j in (1, 2, 3):
        for label in (1, 2):
            got = rp.expectation(rep('a', label, j))
            assert got == rp.BElement({j: m_sym(label, ('a',))})


def test_same_color_mixed_labels_factorize():
    x = rep('a', 1, 2) * rep('b', 2, 2)
    assert rp.expectation(x) == rp.BElement(
        {2: m_sym(1, ('a',)) * m_sym(2, ('b',))})


def test_different_colors_vanish():
    x = rep('a', 1, 1) * rep('b', 2, 2)
    assert rp.expectation(x).is_zero()


def test_projection_expectations():
    for n in (1, 2, 3):
        assert rp.expectation(rp.p_proj(n)) == rp.BElement({n: 1})
        for i in (1, 2):
            assert rp.expectation(rp.e_label(i, n)) == rp.BElement(
                {k: 1 for k in range(1, n + 1)})


def test_projection_algebra():
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            prod = rp.p_proj(i) * rp.p_proj(j)
            assert prod == (rp.p_proj(i) if i == j else rp.REP_ZERO)


def test_boolean_cumulant_examples():
    def B(w, labels):
        return rp.B_w_rep(w, ac._replicas(w, labels, 'x'))

    assert B((1, 2, 1), (1, 2, 1)) == rp.BElement(
        {1: bh(1, 'x1', 'x3') * bh(2, 'x2')})
    assert B((1, 2, 2, 1), (1, 2, 2, 1)) == rp.BElement(
        {1: bh(1, 'x1', 'x4')
         * (bh(2, 'x2', 'x3') + bh(2, 'x2') * bh(2, 'x3'))})
    assert B((1, 1, 2, 1), (1, 1, 2, 1)) == rp.BElement(
        {1: bh(1, 'x1', 'x2', 'x4') * bh(2, 'x3')})
    assert B((1, 2, 3, 2, 1), (1, 2, 1, 2, 1)) == rp.BElement(
        {1: bh(1, 'x1', 'x5') * bh(2, 'x2', 'x4') * bh(1, 'x3')})
    assert B((1, 1, 2, 2, 1), (1, 1, 2, 2, 1)) == rp.BElement(
        {1: bh(1, 'x1', 'x2', 'x5')
         * (bh(2, 'x3', 'x4') + bh(2, 'x3') * bh(2, 'x4'))})
    assert B((1, 1, 2, 2, 1), (1, 1, 2, 1, 1)).is_zero()


def test_nested_cumulant_examples():
    def K(w, labels):
        return rp.K_w_rep(w, ac._replicas(w, labels, 'x'))

    assert K((1, 2, 1), (1, 1, 1)) == rp.BElement(
        {1: -1 * (bh(1, 'x2') * bh(1, 'x1', 'x3'))})
    assert K((1, 2, 2, 1), (1, 1, 1, 1)) == rp.BElement(
        {1: bh(1, 'x1', 'x4')
         * (bh(1, 'x2') * bh(1, 'x3') - bh(1, 'x2', 'x3'))})
    assert K((1, 1, 2, 2, 1), (1, 1, 2, 2, 1)).is_zero()
    assert K((1, 1, 2, 2, 1), (1, 1, 2, 1, 1)).is_zero()


def test_vanishing_moment_nonvanishing_cumulant():
    args = ac._replicas((1, 2, 1), (1, 1, 1), 'x')
    assert rp.expectation(rp.rep_product(args)).is_zero()
    assert rp.K_w_rep((1, 2, 1), args) == rp.BElement(
        {1: -1 * (bh(1, 'x1', 'x3') * bh(1, 'x2'))})


# The local-extraction and nesting identities exclude four flat-peak
# instances where a lower same-label letter's tail projection annihilates
# the inner complement; these anchors pin the excluded moments at zero.
ANCHORS = [
    ((1, 2, 2, 2, 1), (1, 2, 1, 2, 1)),
    ((1, 2, 2, 2, 1), (2, 1, 2, 1, 2)),
    ((2, 3, 3, 3, 2), (1, 2, 1, 2, 1)),
    ((2, 3, 3, 3, 2), (2, 1, 2, 1, 2)),
]


@pytest.mark.parametrize('w,ell', ANCHORS)
def test_flat_peak_exclusions_have_zero_moment(w, ell):
    aa = ac._replicas(w, ell)
    assert rp.expectation(rp.rep_product(aa)).is_zero()
    # the would-be factorized side does not vanish
    k = 2
    rhs = rp.expectation(rp.rep_product(
        aa[:k] + [rp.p_proj(w[k])] + aa[k + 1:])) * m_sym(ell[k], ('v3',))
    assert not rhs.is_zero()


def test_constant_word_lemma_small():
    assert ac._check_constant_word_lemma(4) is None


def test_factorization_lemma_small():
    assert ac._check_factorization(4) is None


def test_local_maximum_lemma_small():
    assert ac._check_local_maximum(4) is None


def test_insertion_lemmas_small():
    assert ac._check_insertions(4) is None


def test_nesting_lemma_small():
    assert ac._check_nesting(5) is None


def test_monotone_pair_lemma_small():
    assert ac._check_monotone_pairs(4) is None


def test_projection_argument_lemmas_small():
    assert ac._check_standalone_projections(3) is None


def test_cumulant_projection_lemmas_small():
    assert ac._check_cumulant_lemmas(4, 2) is None


def test_additivity_small():
    assert ac._check_additivity(4) is None


def test_closed_forms_small():
    assert ac._check_closed_forms(4) is None


def test_zeta():
    b = rp.BElement({0: m_sym(1, ('a',)), 1: m_sym(2, ('b',)),
                     2: m_sym(1, ('c',))})
    assert b.zeta() == m_sym(1, ('a',)) + m_sym(2, ('b',))


def test_embed_round_trip():
    b = rp.expectation(rep('a', 1, 1) * rep('b', 2, 1))
    assert rp.expectation(b.embed()) == b


def test_replica_rejects_bad_input():
    with pytest.raises(ValueError):
        rp.replica('a', 3, 1)
    with pytest.raises(ValueError):
        rp.replica('a', 1, 0)
    with pytest.raises(ValueError):
        rp.psi(0, rp.REP_ONE)


def test_equality_with_foreign_types():
    assert rp.REP_ONE != 0
    assert not rp.REP_ONE == 0
    assert rp.B_ZERO != 0
    assert not rp.B_ZERO == 'x'
    sums = [lambda: ONE + 1, lambda: 1 + ONE, lambda: ONE - 1,
            lambda: ONE + rp.REP_ONE, lambda: rp.REP_ONE + 0,
            lambda: rp.REP_ONE - ONE, lambda: rp.B_ZERO - 0,
            lambda: rp.B_ZERO + rp.REP_ONE]
    for op in sums:
        with pytest.raises(TypeError):
            op()


# The expectation and B_w as first written, kept unchanged as the
# reference for the per-monomial cache and the first-block recurrence.

def frozen_expectation(x):
    """Conditional expectation onto the span of 1 and the p_j: boundary
    projections of each tensor factor determine the output color, the
    interior is evaluated by phi."""
    out = rp.BElement()
    for (s1, s2), coeff in x.terms.items():
        for sign1, b1 in rp._branch_strings(s1):
            for sign2, b2 in rp._branch_strings(s2):
                e1, f1, core1 = rp._strip(b1)
                e2, f2, core2 = rp._strip(b2)
                val = rp.phi(rp.Rep({(core1, core2): coeff}))
                if val.is_zero():
                    continue
                val = Fraction(sign1 * sign2) * val
                je = min(e1 | e2) if e1 | e2 else None
                jf = min(f1 | f2) if f1 | f2 else None
                ks = [k for k in (je, jf) if k is not None]
                if not ks:
                    out = out + rp.BElement({0: val})
                else:
                    k = min(ks)
                    out = out + rp.BElement({i: val for i in range(1, k + 1)})
    return out


def frozen_B_w_rep(w, args):
    """w-Boolean cumulant of replica-algebra arguments, by recursion
    over the interval splits of w."""
    w = tuple(w)
    if len(args) != len(w):
        raise ValueError('argument/word length mismatch')
    out = frozen_expectation(rp.rep_product(args))
    for split in ad.interval_splits(w):
        if len(split) == 1:
            continue
        prod = rp.BElement({0: 1})
        for block in split:
            prod = prod * frozen_B_w_rep(ad.block_subword(w, block),
                                         [args[p - 1] for p in block])
        out = out - prod
    return out


def test_B_w_rep_matches_split_recursion():
    pairs = 0
    for n in range(1, 6):
        for w in ac._am_words(n):
            for ell in iproduct((1, 2), repeat=n):
                args = ac._replicas(w, ell, 'x')
                assert rp.B_w_rep(w, args) == frozen_B_w_rep(w, args), \
                    (w, ell)
                pairs += 1
    assert pairs == 778


def test_expectation_matches_uncached():
    for n in range(1, 5):
        for w in iproduct((1, 2, 3), repeat=n):
            for ell in iproduct((1, 2), repeat=n):
                args = ac._replicas(w, ell, 'x')
                for i, j in iproduct(range(n + 1), (1, 2, 3)):
                    x = rp.rep_product(args[:i] + [rp.p_proj(j)] + args[i:])
                    assert rp.expectation(x) == frozen_expectation(x), \
                        (w, ell, i, j)


# The string product and the Rep product's pair loop as first written,
# before the string product was cached, kept unchanged as the reference.

def frozen_mul_string(s, t):
    n = max(len(s[0]), len(t[0]))
    out = []
    for j in range(1, n + 1):
        site = rp._simp_site(rp._site(s, j) + rp._site(t, j))
        if site is None:
            return None
        out.append(site)
    return rp._canon_string(out, s[1] | t[1])


def frozen_rep_mul(x, y):
    out = {}
    for (a1, a2), c in x.terms.items():
        for (b1, b2), d in y.terms.items():
            s1 = frozen_mul_string(a1, b1)
            if s1 is None:
                continue
            s2 = frozen_mul_string(a2, b2)
            if s2 is None:
                continue
            key = (s1, s2)
            cd = c * d
            out[key] = out[key] + cd if key in out else cd
    return rp._rep({k: c for k, c in out.items() if c.terms})


def test_rep_product_matches_uncached():
    elements = [rep('a', label, j) for j in (1, 2, 3) for label in (1, 2)]
    for j in (1, 2, 3):
        elements += [rp.p_proj(j), rp.e_proj(j), rp.REP_ONE - rp.p_proj(j)]
    elements += [rp.REP_ONE, rp.REP_ZERO]
    for x, y in iproduct(elements, repeat=2):
        assert x * y == frozen_rep_mul(x, y)
    words = 0
    for n in range(1, 5):
        for w in iproduct((1, 2, 3), repeat=n):
            for ell in iproduct((1, 2), repeat=n):
                args = ac._replicas(w, ell, 'x')
                want = rp.REP_ONE
                for a in args:
                    want = frozen_rep_mul(want, a)
                assert rp.rep_product(args) == want, (w, ell)
                words += 1
    assert words == 1554


def test_cached_projections_stay_unchanged():
    def fresh_e(n):
        return rp.e_label(1, n) * rp.e_label(2, n) if n else rp.REP_ZERO

    x = rp.REP_ONE
    for j in (1, 2, 3):
        a = rep('a', 1 + j % 2, j)
        y = rp.p_proj(j) + rp.e_proj(j) * a
        x = (x + rp.p_proj(j)) * y - (rp.e_proj(j + 1) - rp.p_proj(j)) * x
        rp.expectation(x * rp.p_proj(j))
        rp.B_w_rep((j, j), [rp.p_proj(j), a * rp.e_proj(j)])
        rp.expectation(rp.p_proj(j) * a).embed()
    for j in range(1, 5):
        assert rp.p_proj(j) is rp.p_proj(j)
        assert rp.e_proj(j) == fresh_e(j)
        assert rp.p_proj(j) == fresh_e(j) - fresh_e(j - 1)


# K_w, the nested cumulants and the BElement product as written before
# the irreducible partitions of a word were cached, before the nested
# cumulants were memoized on their argument structure and before the
# product took one Poly product per color, kept unchanged as the
# reference.

def frozen_nested_rep(w, pi, args, leaf):
    w = tuple(w)
    children = sp.siblings(sp.nesting(sp.normalize(pi)))

    def value(b):
        vals = [args[p - 1] for p in b]
        for c in children[b]:
            i = bisect_left(b, c[0]) - 1
            vals[i] = vals[i] * value(c).embed()
        return leaf(ad.block_subword(w, b), vals)

    out = rp.BElement({0: 1})
    for b in children[None]:
        out = out * value(b)
    return out


def frozen_K_w_rep(w, args):
    w = tuple(w)
    out = rp.B_w_rep(w, args)
    for pi in ad.enumerate_adapted(w, 'irr'):
        if len(pi) == 1:
            continue
        out = out - frozen_nested_rep(w, pi, args, frozen_K_w_rep)
    return out


def frozen_belement_mul(x, y):
    c0 = x.comp.get(0, ZERO)
    d0 = y.comp.get(0, ZERO)
    out = {0: c0 * d0}
    for j in set(x.comp) | set(y.comp):
        if j == 0:
            continue
        cj = x.comp.get(j, ZERO)
        dj = y.comp.get(j, ZERO)
        out[j] = c0 * dj + cj * d0 + cj * dj
    return rp._belement({j: c for j, c in out.items() if c.terms})


def test_K_w_rep_matches_uncached():
    pairs = 0
    for n in range(1, 6):
        for w in ac._am_words(n):
            for ell in iproduct((1, 2), repeat=n):
                args = ac._replicas(w, ell, 'x')
                assert rp.K_w_rep(w, args) == frozen_K_w_rep(w, args), \
                    (w, ell)
                pairs += 1
    assert pairs == 778
    # the 32 cases at n=6 where K_w_rep and K_closed_rep disagree
    for w, labelings in N6_DISAGREEMENTS.items():
        for ell in labelings.split():
            ell = tuple(map(int, ell))
            args = ac._replicas(w, ell)
            assert rp.K_w_rep(w, args) == frozen_K_w_rep(w, args), (w, ell)


def test_nested_cumulants_match_frozen():
    cases = 0
    for n in range(1, 6):
        for w in ac._am_words(n):
            labelings = (list(iproduct((1, 2), repeat=n)) if n < 5
                         else [(1,) * n, ((1, 2) * n)[:n]])
            for ell in labelings:
                args = ac._replicas(w, ell, 'x')
                for pi in ad.enumerate_adapted(w, 'all'):
                    assert rp.K_pi_rep(w, pi, args) == frozen_nested_rep(
                        w, pi, args, frozen_K_w_rep), (w, ell, pi)
                    assert rp.B_pi_rep(w, pi, args) == frozen_nested_rep(
                        w, pi, args, rp.B_w_rep), (w, ell, pi)
                    cases += 1
                want = rp.B_ZERO
                for pi in ad.enumerate_adapted(w, 'irr'):
                    want = want + (-1) ** (len(pi) - 1) * frozen_nested_rep(
                        w, pi, args, rp.B_w_rep)
                assert rp.K_closed_rep(w, args) == want, (w, ell)
    assert cases > 1000
    # partitions given as lists of blocks in any order, as before
    w = (1, 2, 2, 1)
    args = ac._replicas(w, (1, 2, 2, 1), 'x')
    assert rp.K_pi_rep(w, [[3, 2], [4, 1]], args) == frozen_nested_rep(
        w, ((1, 4), (2, 3)), args, frozen_K_w_rep)
    with pytest.raises(ValueError, match='length mismatch'):
        rp.K_w_rep(w, args[:3])
    with pytest.raises(ValueError, match='length mismatch'):
        rp.K_pi_rep(w, ((1, 4), (2, 3)), args + args[:1])
    with pytest.raises(ValueError, match='noncrossing'):
        rp.K_pi_rep(w, ((1, 3), (2, 4)), args)


N6_DISAGREEMENTS = {
    (1, 2, 2, 3, 2, 1): '111111 111211 112121 112221 121111 121211 122121 '
                        '122221 211112 211212 212122 212222 221112 221212 '
                        '222122 222222',
    (1, 2, 3, 2, 2, 1): '111111 111121 112111 112121 121211 121221 122211 '
                        '122221 211112 211122 212112 212122 221212 221222 '
                        '222212 222222',
}


def test_belement_product_matches_three_products():
    a, b = m_sym(1, ('a',)), m_sym(2, ('b',))
    elements = [rp.B_ZERO, rp.BElement({0: 1}), rp.BElement({0: a}),
                rp.BElement({1: a}), rp.BElement({2: b - ONE}),
                rp.BElement({0: b, 1: a}), rp.BElement({0: a, 2: a * b}),
                rp.BElement({1: 3, 3: b})]
    for n in range(1, 4):
        for w in iproduct((1, 2, 3), repeat=n):
            for ell in iproduct((1, 2), repeat=n):
                elements.append(rp.expectation(
                    rp.rep_product(ac._replicas(w, ell, 'x'))))
    elements = [x for i, x in enumerate(elements) if x not in elements[:i]]
    assert len(elements) > 50
    for x, y in iproduct(elements, repeat=2):
        assert x * y == frozen_belement_mul(x, y), (x, y)
