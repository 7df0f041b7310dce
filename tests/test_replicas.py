import multiprocessing
import pickle
from bisect import bisect_left
from fractions import Fraction
from itertools import product as iproduct

import pytest

from ncmotzkin import acceptance as ac
from ncmotzkin import adapted as ad
from ncmotzkin import partitions as sp
from ncmotzkin import replicas as rp
from ncmotzkin import words as wd
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


# Each row's case count at the bounds of the lemma checks it replaced:
# nesting to n=5, the standalone p_j rows to 3, the rest to 4 (the
# projected variants of the cumulant rows to n=2). A hypothesis that drops
# cases changes its count.
ROW_BOUNDS = {'nesting': 5, 'K-standalone-p': 3, 'B-standalone-p': 3}
ROW_COUNTS = {
    'constant-moment': 16, 'constant-separated': 16,
    'constant-alternating': 6, 'factorization': 1140, 'local-maximum': 156,
    'same-label-insertion': 114, 'step-insertion': 56, 'nesting': 98,
    'pair-deletion': 36, 'K-standalone-p': 268, 'B-standalone-p': 196,
    'additivity': 8, 'B-closed-form': 202, 'K-closed-form': 202,
    'K-inversion': 202, 'B-middle-projection': 548,
    'K-middle-projection': 548, 'B-mixed-insertion': 146,
    'B-deletion-1': 60, 'B-deletion-2': 112, 'K-deletion': 88,
}


@pytest.mark.parametrize('row', ac.LEMMAS, ids=lambda row: row.name)
def test_lemma_row(row):
    cases = row.cases(ROW_BOUNDS.get(row.name, 4))
    assert next((case for case in cases if not row.holds(*case)), None) is None
    assert len(cases) == ROW_COUNTS[row.name]


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


# The expectation, phi and B_w as first written, kept unchanged as the
# reference for the per-monomial cache, the per-site fold and the
# first-block recurrence.

def frozen_site_branches(tokens):
    """Expand every C into 1 (sign +) or P (sign -): list of
    (sign, simplified word); annihilated branches are dropped."""
    spots = [i for i, t in enumerate(tokens) if t == 'C']
    if not spots:
        return [(1, tokens)]
    out = []
    for choice in iproduct((0, 1), repeat=len(spots)):
        sign = 1
        word = list(tokens)
        for i, c in zip(spots, choice):
            if c:
                sign = -sign
                word[i] = 'P'
            else:
                word[i] = None
        site = rp._simp_site(t for t in word if t is not None)
        if site is not None:
            out.append((sign, site))
    return out


def frozen_runs(tokens):
    """Maximal runs of algebra letters between projection letters."""
    runs = []
    cur = []
    for t in tokens:
        if t == 'P':
            if cur:
                runs.append(tuple(cur))
                cur = []
        else:
            cur.append(t[1])
    if cur:
        runs.append(tuple(cur))
    return runs


def frozen_phi_site(tokens, label):
    """Phi of one site's word on the label's marginal."""
    out = ZERO
    for sign, word in frozen_site_branches(tokens):
        val = ONE
        for run in frozen_runs(word):
            val = val * m_sym(label, run)
        out = out + sign * val
    return out


def frozen_phi_hat_site(tokens, label):
    # vanishes on words containing the projection; C acts as 1
    if 'P' in tokens:
        return ZERO
    vars_ = tuple(t[1] for t in tokens if t != 'C')
    return m_sym(label, vars_) if vars_ else ONE


def frozen_phi(x, cutoff=0):
    """The product functional site by site; the first `cutoff` sites by
    the functional vanishing on projections, which yields Psi_j for
    cutoff j - 1."""
    total = ZERO
    for strings, coeff in rp.raw_terms(x).items():
        val = coeff
        for label, (sites, _tail) in zip((1, 2), strings):
            for j, tokens in enumerate(sites, start=1):
                f = frozen_phi_hat_site if j <= cutoff else frozen_phi_site
                val = val * f(tokens, label)
        total = total + val
    return total


def frozen_branch_strings(string):
    """All C-expansions of one string: list of (sign, branch string)."""
    sites, tail = string
    per_site = [frozen_site_branches(t) for t in sites]
    out = []
    for combo in iproduct(*per_site):
        sign = 1
        branch = []
        for s, word in combo:
            sign *= s
            branch.append(word)
        out.append((sign, rp._canon_string(branch, tail)))
    return out


def frozen_strip(string):
    """Split one projection-and-letter string into boundary projection
    flags and the interior core: returns (e colors, f colors, core)."""
    sites, tail = string
    eflags = set()
    fflags = set()
    core = []
    for j, tokens in enumerate(sites, start=1):
        if tokens == ('P',):
            eflags.add(j)
            fflags.add(j)
            core.append(())
            continue
        t = tokens
        if t and t[0] == 'P':
            eflags.add(j)
            t = t[1:]
        if t and t[-1] == 'P':
            fflags.add(j)
            t = t[:-1]
        core.append(t)
    if tail == rp.TAIL_PROJ:
        eflags.add(len(sites) + 1)
        fflags.add(len(sites) + 1)
    return eflags, fflags, rp._canon_string(core, rp.TAIL_ONE)


def frozen_expectation(x):
    """Conditional expectation onto the span of 1 and the p_j: boundary
    projections of each tensor factor determine the output color, the
    interior is evaluated by phi."""
    out = rp.BElement()
    for (s1, s2), coeff in rp.raw_terms(x).items():
        for sign1, b1 in frozen_branch_strings(s1):
            for sign2, b2 in frozen_branch_strings(s2):
                e1, f1, core1 = frozen_strip(b1)
                e2, f2, core2 = frozen_strip(b2)
                val = frozen_phi(rp.Rep({(core1, core2): coeff}))
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
    # the plain product and the product with p_j inserted before
    # argument i; phi is zeta of E, and Psi_c is phi with the first c - 1
    # sites taken by the functional vanishing on projections
    cases = 0
    for n in range(1, 5):
        for w in iproduct((1, 2, 3), repeat=n):
            for ell in iproduct((1, 2), repeat=n):
                args = ac._replicas(w, ell, 'x')
                for i, j in [(0, None)] + list(iproduct(range(n + 1),
                                                        (1, 2, 3))):
                    proj = [] if j is None else [rp.p_proj(j)]
                    x = rp.rep_product(args[:i] + proj + args[i:])
                    assert rp.expectation(x) == frozen_expectation(x), \
                        (w, ell, i, j)
                    assert rp.phi(x) == frozen_phi(x) == \
                        rp.expectation(x).zeta(), (w, ell, i, j)
                    for c in (1, 2, 3, 4):
                        assert rp.psi(c, x) == frozen_phi(x, c - 1), \
                            (w, ell, i, j, c)
                    cases += 1
    assert cases == 23946


def test_expectation_matches_frozen_on_sums():
    # arguments of several terms, or of one term whose coefficient is not
    # the unit, which expectation accumulates color by color
    a = m_sym(1, ('a',))
    factors = [rp.REP_ZERO, rp.REP_ONE]
    for j in (1, 2, 3):
        factors += [rp.REP_ONE - rp.p_proj(j), rp.e_proj(j) + rep('a', 2, j)]
    for w, ell in (((1, 2, 1), (1, 2, 1)), ((1, 1), (1, 2)),
                   ((1, 2, 2, 1), (2, 1, 1, 2)), ((2, 2), (1, 1))):
        factors.append(rp.B_w_rep(w, ac._replicas(w, ell, 'y')).embed())
    shapes = set()
    for f in factors:
        for x in (f, a * f, Fraction(-3, 2) * f, f * (ONE - a), 0 * f):
            for y in (x, rep('b', 1, 2) * x, x * rep('c', 2, 1) * x):
                assert rp.expectation(y) == frozen_expectation(y), y.terms
                shapes.add((len(y.terms),
                            any(c != ONE for c in y.terms.values())))
    assert {(0, False), (1, False), (1, True), (2, False), (2, True),
            (4, True)} <= shapes
    assert rp.expectation(rp.REP_ZERO) == rp.B_ZERO


def test_expectation_matches_frozen_on_raw_strings():
    # raw monomials with site words that products of replicas and
    # projections may not reach, such as a letter followed by P alone
    def site_words(letters, top):
        return [t for n in range(top + 1)
                for t in iproduct(letters + ['P', 'C'], repeat=n)
                if rp._simp_site(t) == t]

    tails = (rp.TAIL_ONE, rp.TAIL_PROJ)
    strings1 = [(sites, tail)
                for s in site_words([('v', 'a'), ('v', 'b')], 3)
                for sites in ((s,), ((), s)) for tail in tails]
    strings2 = [((s,), tail) for s in site_words([('v', 'c')], 2)
                for tail in tails]
    for s1, s2 in iproduct(strings1, strings2):
        x = rp.Rep({(s1, s2): 1})
        assert rp.expectation(x) == frozen_expectation(x), (s1, s2)
        assert rp.phi(x) == frozen_phi(x), (s1, s2)
    assert (len(strings1), len(strings2)) == (228, 18)


def test_rep_product_starts_from_first_argument():
    assert rp.rep_product([]) is rp.REP_ONE
    assert rp.rep_product(iter([])) is rp.REP_ONE
    for x in (rp.REP_ZERO, rp.p_proj(2), rep('a', 1, 1),
              rp.REP_ONE - rp.p_proj(1)):
        assert rp.rep_product([x]) == x
        assert rp.rep_product([x, rp.REP_ONE]) == x
        assert rp.rep_product(iter([rp.REP_ONE, x])) == x


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
    for (a1, a2), c in rp.raw_terms(x).items():
        for (b1, b2), d in rp.raw_terms(y).items():
            s1 = frozen_mul_string(a1, b1)
            if s1 is None:
                continue
            s2 = frozen_mul_string(a2, b2)
            if s2 is None:
                continue
            key = (s1, s2)
            cd = c * d
            out[key] = out[key] + cd if key in out else cd
    return rp.Rep({k: c for k, c in out.items() if c.terms})


def rep_elements():
    """Rep operands of one and of several terms, with unit and other
    coefficients, including one-term pairs whose product vanishes."""
    a = m_sym(1, ('a',))
    elements = [rep('a', label, j) for j in (1, 2, 3) for label in (1, 2)]
    for j in (1, 2, 3):
        elements += [rp.p_proj(j), rp.e_proj(j), rp.REP_ONE - rp.p_proj(j)]
    elements += [rp.REP_ONE, rp.REP_ZERO, a * rep('b', 1, 2),
                 Fraction(-1, 2) * rp.e_proj(2),
                 rep('a', 1, 1) * rep('b', 2, 2), (ONE - a) * rep('c', 2, 1),
                 rp.p_proj(1) * a * rep('b', 2, 1), rp.REP_ONE - a * rp.REP_ONE]
    return elements


def test_rep_product_matches_uncached():
    elements = rep_elements()
    one_term = [x for x in elements if len(x.terms) == 1]
    assert len(one_term) > 15
    for x, y in iproduct(elements, repeat=2):
        assert x * y == frozen_rep_mul(x, y)
    assert any((x * y).is_zero() for x, y in iproduct(one_term, repeat=2))
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


def test_interned_strings_and_monomials_are_canonical_and_unique():
    elements = rep_elements()
    for x, y in iproduct(elements, repeat=2):
        rp.expectation(x * y)
    for x in elements:
        raw = rp.raw_terms(x)
        assert rp.Rep(raw) == x
        for key, c in raw.items():
            assert rp.raw_terms(rp.Rep({key: c})) == {key: c}
    # a raw string with trailing tail sites names its canonical string
    a = (('v', 'a'),)
    trivial = ((), rp.TAIL_ONE)
    for tail, pad in ((rp.TAIL_ONE, ()), (rp.TAIL_PROJ, ('P',))):
        canon, padded = ((a,), tail), ((a, pad, pad), tail)
        assert rp.Rep({(trivial, padded): 1}) == rp.Rep({(trivial, canon): 1})
        assert rp.Rep({(padded, trivial): 1, (canon, trivial): -1}).is_zero()
    strings, monos = rp._STRINGS, rp._MONOS
    assert rp._STRING_IDS == {s: i for i, s in enumerate(strings)}
    assert rp._MONO_IDS == {m: k for k, m in enumerate(monos)}
    for sites, tail in strings:
        assert not sites or sites[-1] != (() if tail == rp.TAIL_ONE
                                          else ('P',)), (sites, tail)
    for k, (i, j) in enumerate(monos):
        assert rp.monomial_of(k) == (rp.string_of(i), rp.string_of(j))


def test_rep_built_in_a_spawned_worker_equals_the_parents():
    # string and monomial ids depend on the order in which a process
    # first meets them; this process meets a marker first, so a fresh
    # worker gives the same monomials other ids, and a Rep has to cross
    # by its raw monomials, both ways
    rep('pickle-marker', 2, 5) * rep('pickle-marker', 1, 4)
    w, ell, names = (2, 2, 2, 2), (1, 2, 1, 2), ('a', 'b', 'c', 'd')
    extra = rp.REP_ONE - rp.p_proj(1)
    want = rp.replica_word(names, ell, w) * extra + rp.p_proj(3)
    assert len(want.terms) > 2
    with multiprocessing.get_context('spawn').Pool(1) as pool:
        got = pool.apply_async(rp.replica_word, (names, ell, w)).get(60)
        e = pool.apply_async(rp.expectation, (want,)).get(60)
    assert got * extra + rp.p_proj(3) == want
    assert rp.raw_terms(got) == rp.raw_terms(rp.replica_word(names, ell, w))
    assert e == rp.expectation(want) and not e.is_zero()
    assert pickle.loads(pickle.dumps(want)) == want


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


def frozen_K_closed_rep(w, args):
    # K_closed_rep as written before it folded the grammar of NC(w): one
    # nesting plan per irreducible adapted partition, B_pi through Forests
    forest, atoms = rp._leaves(w, args)
    nested_B = rp.Forests(atoms, motzkin=False)
    out = rp.B_ZERO
    for pi in ad.enumerate_adapted(w, 'irr'):
        term = nested_B.nested(sp._plan(pi), forest)
        out = out + (-1) ** (len(pi) - 1) * term
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
    # the 32 cases at n=6 where K_w_rep and K_closed_rep disagree when
    # the sibling blocks of NC(w) must have equal letters per outer
    # block instead of per gap of it
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


def test_K_w_rep_matches_closed_forms_at_six_and_seven():
    # every labeling of every word over 1..3 at n=6, so mixed-label
    # cumulants must vanish, and constant labels over 1..4 at n=7: the
    # first lengths where NC(w) under a sibling rule per outer block,
    # not per gap of it, loses partitions and these three disagree
    cases = [(w, ell) for w in ac._am_words(6)
             for ell in iproduct((1, 2), repeat=6)]
    cases += [(w, (j,) * 7) for w in ac._am_words(7, 4) for j in (1, 2)]
    assert len(cases) == 2432 + 268
    for w, ell in cases:
        args = ac._replicas(w, ell)
        names = ac._vars(len(w), 'v')
        assert rp.K_w_rep(w, args) == rp.K_closed_rep(w, args) == \
            frozen_K_closed_rep(w, args) == \
            rp.K_closed_form_rep(w, names, ell), (w, ell)


def test_K_closed_rep_matches_frozen_plans_to_five():
    # with the test above: every labeling of every word over 1..3 to n=6
    cases = 0
    for n in range(1, 6):
        for w in ac._am_words(n):
            for ell in iproduct((1, 2), repeat=n):
                args = ac._replicas(w, ell)
                assert rp.K_closed_rep(w, args) == \
                    frozen_K_closed_rep(w, args) == rp.K_w_rep(w, args), \
                    (w, ell)
                cases += 1
    assert cases == 778
    with pytest.raises(ValueError, match='n must be >= 1'):
        rp.K_closed_rep((), [])


# The closed forms of B_w and K_w as written before their block products
# went through cumulants.block_sum and before B_closed_form filtered
# M_irr(w) itself, kept unchanged as the reference.

def frozen_beta_hat_pi(pi, labels, variables):
    out = ONE
    for b in pi:
        out = out * rp.beta_hat(labels[b[0] - 1],
                                [variables[p - 1] for p in b])
    return out


def frozen_B_closed_form(w, variables, labels):
    w = tuple(w)
    val = ZERO
    for pi in ad.enumerate_adapted(w, 'monotone'):
        if ad.block_labels_constant(pi, labels) and \
                ad.chains_alternate(pi, labels) and sp.is_irreducible(pi):
            val = val + frozen_beta_hat_pi(pi, labels, variables)
    return rp.BElement({wd.height(w): val})


def frozen_K_closed_form_rep(w, variables, labels):
    w = tuple(w)
    if len(set(labels)) != 1:
        return rp.B_ZERO
    val = ZERO
    for pi in ad.enumerate_adapted(w, 'monotone_irr'):
        val = val + (-1) ** (len(pi) - 1) * frozen_beta_hat_pi(
            pi, labels, variables)
    return rp.BElement({wd.height(w): val})


def test_closed_forms_match_frozen():
    cases = 0
    for n in range(1, 7):
        names = ac._vars(n, 'v')
        for w in ac._am_words(n):
            for ell in iproduct((1, 2), repeat=n):
                assert rp.B_closed_form(w, names, ell) == \
                    frozen_B_closed_form(w, names, ell), (w, ell)
                assert rp.K_closed_form_rep(w, names, ell) == \
                    frozen_K_closed_form_rep(w, names, ell), (w, ell)
                for pi in ad.enumerate_adapted(w, 'monotone'):
                    assert rp.beta_hat_pi(pi, ell, names) == \
                        frozen_beta_hat_pi(pi, ell, names), (pi, ell)
                cases += 1
    assert cases == 3210
    with pytest.raises(ValueError, match='labeling length mismatch'):
        rp.B_closed_form((1, 1), ('a', 'b'), (1,))


def belement_elements():
    """BElement operands with and without a unit component, several on
    the same single projection, and some whose unit and projection parts
    cancel in a product."""
    a, b = m_sym(1, ('a',)), m_sym(2, ('b',))
    elements = [rp.B_ZERO, rp.BElement({0: 1}), rp.BElement({0: a}),
                rp.BElement({1: a}), rp.BElement({2: b - ONE}),
                rp.BElement({0: b, 1: a}), rp.BElement({0: a, 2: a * b}),
                rp.BElement({1: 3, 3: b}), rp.BElement({1: ONE - a}),
                rp.BElement({1: Fraction(-1, 2)}), rp.BElement({2: a * b}),
                rp.BElement({0: a, 1: -a}), rp.BElement({0: -b, 2: b})]
    for n in range(1, 4):
        for w in iproduct((1, 2, 3), repeat=n):
            for ell in iproduct((1, 2), repeat=n):
                elements.append(rp.expectation(
                    rp.rep_product(ac._replicas(w, ell, 'x'))))
    for w, ell in (((1, 2, 1), (1, 2, 1)), ((1, 1), (1, 2)),
                   ((1, 2, 2, 1), (2, 1, 1, 2))):
        elements.append(rp.B_w_rep(w, ac._replicas(w, ell, 'y')))
    return [x for i, x in enumerate(elements) if x not in elements[:i]]


def test_belement_product_matches_three_products():
    elements = belement_elements()
    assert len(elements) > 50
    same = 0
    for x, y in iproduct(elements, repeat=2):
        assert x * y == frozen_belement_mul(x, y), (x, y)
        same += len(x.comp) == len(y.comp) == 1 and x.comp.keys() == \
            y.comp.keys() != {0}
    assert same > 100


def test_difference_is_sum_with_negated_operand():
    # the term-by-term difference against the sum with (-1) times the
    # second operand, as subtraction was first written
    for x, y in iproduct(rep_elements(), repeat=2):
        assert (x - y).terms == (x + (-1) * y).terms, (x.terms, y.terms)
    for x, y in iproduct(belement_elements(), repeat=2):
        assert (x - y).comp == (x + (-1) * y).comp, (x, y)


def test_zero_operands_match_frozen_products():
    a = m_sym(1, ('a',))
    zeros = [rp.REP_ZERO, rp.Rep(), rp.Rep({(((), 0), ((), 0)): 0}),
             rp.p_proj(1) * rp.p_proj(2)]
    others = [rp.REP_ZERO, rp.REP_ONE, rp.p_proj(2), rep('a', 2, 3),
              (rp.REP_ONE - rp.p_proj(1)) * a + rep('b', 1, 1)]
    for z in zeros:
        assert z.is_zero()
        for x in others:
            for u, v in ((z, x), (x, z)):
                assert u * v == frozen_rep_mul(u, v) == rp.REP_ZERO
        assert z * a == rp.REP_ZERO and a * z == rp.REP_ZERO
    b_zeros = [rp.B_ZERO, rp.BElement(), rp.BElement({0: 0, 2: ZERO})]
    b_others = [rp.B_ZERO, rp.BElement({0: 1}), rp.BElement({2: a}),
                rp.BElement({0: a, 1: ONE - a, 3: 2})]
    for z in b_zeros:
        assert z.is_zero()
        for x in b_others:
            for u, v in ((z, x), (x, z)):
                assert u * v == frozen_belement_mul(u, v) == rp.B_ZERO
        assert z * a == rp.B_ZERO and a * z == rp.B_ZERO
