import multiprocessing
import pickle
import pytest
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from hypothesis import given, settings, strategies as st

from ncmotzkin import adapted as ad
from ncmotzkin import cli
from ncmotzkin import cumulants as cm
from ncmotzkin import partitions as sp
from ncmotzkin import replicas as rp
from ncmotzkin import words as wd
from ncmotzkin.cumulants import Poly, ZERO, ONE, beta_sym, m_sym, UNIT
from ncmotzkin.acceptance import EX102_PIECES, FIG4_PIECES, _beta_pi, _catalan


def test_poly_arithmetic():
    x = Poly.symbol('m', 0, ('x',))
    y = Poly.symbol('m', 0, ('y',))
    assert (x + y) - y == x
    assert x * y == y * x
    assert (x - x).is_zero()
    assert 2 * x == x + x
    assert Poly.const(Fraction(1, 2)) * 2 == ONE
    assert ONE != 'x'
    assert not ONE == None  # noqa: E711


def test_unit_rules():
    assert m_sym(0, (UNIT, UNIT)) == ONE
    assert m_sym(0, ('x', UNIT)) == m_sym(0, ('x',))
    assert beta_sym(0, (UNIT,)) == ONE
    assert beta_sym(0, ('x', UNIT, 'y')) == beta_sym(0, ('x', 'y'))
    assert beta_sym(0, (UNIT, 'x')).is_zero()
    assert beta_sym(0, ('x', UNIT)).is_zero()


def test_order_four_free_cumulant_in_moments():
    m = {k: m_sym(0, ('x',) * k) for k in range(1, 5)}
    expected = (m[4] - 4 * m[3] * m[1] - 2 * m[2] * m[2]
                + 10 * m[2] * m[1] * m[1]
                - 5 * m[1] * m[1] * m[1] * m[1])
    assert cm.transform('m', 'r', 0, ('x',) * 4) == expected


def test_order_four_free_cumulant_in_boolean():
    b = {k: beta_sym(0, ('x',) * k) for k in range(1, 5)}
    expected = b[4] - 2 * b[3] * b[1] - b[2] * b[2] + b[2] * b[1] * b[1]
    assert cm.transform('beta', 'r', 0, ('x',) * 4) == expected


def test_order_four_multivariate_expansion():
    a = ('a1', 'a2', 'a3', 'a4')

    def bb(*idx):
        return beta_sym(0, tuple(f'a{i}' for i in idx))

    expected = (bb(1, 2, 3, 4) - bb(1, 2, 4) * bb(3) - bb(1, 3, 4) * bb(2)
                - bb(1, 4) * bb(2, 3) + bb(1, 4) * bb(2) * bb(3))
    assert cm.transform('beta', 'r', 0, a) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6),
       st.sampled_from([('m', 'r'), ('m', 'beta'), ('r', 'beta'),
                        ('r', 'm'), ('beta', 'm'), ('beta', 'r')]),
       st.booleans())
def test_transform_round_trip(n, pair, multivariate):
    src, dst = pair
    args = tuple(f'a{i}' for i in range(n)) if multivariate else ('x',) * n
    fwd = cm.transform(src, dst, 0, args)
    back = cm.expand_symbols(
        fwd, lambda s: cm.transform(dst, s[0], s[1], s[2]))
    assert back == Poly.symbol(dst, 0, args)


def test_transform_rejects_unknown():
    with pytest.raises(ValueError):
        cm.transform('m', 'm', 0, ('x',))
    with pytest.raises(ValueError):
        cm.transform('m', 'r', 0, ())


def test_word_pieces_order_four():
    for w, pieces in EX102_PIECES.items():
        expected = ZERO
        for sign, pi in pieces:
            expected = expected + Fraction(sign) * _beta_pi(pi, ('x',) * 4)
        assert cm.motzkin_k(w, [('x', 0)] * 4) == expected


def test_word_pieces_order_five():
    for w, pieces in FIG4_PIECES.items():
        expected = ZERO
        for sign, pi in pieces:
            expected = expected + Fraction(sign) * _beta_pi(pi, ('x',) * 5)
        assert cm.motzkin_k(w, [('x', 0)] * 5) == expected


def test_pieces_sum_to_free_cumulant():
    for n in range(1, 7):
        total = ZERO
        for w in wd.enumerate_words(n):
            total = total + cm.motzkin_k(w, [('x', 0)] * n)
        assert total == cm.free_in_boolean(0, ('x',) * n)


def test_piece_term_counts():
    for n in range(1, 8):
        terms = sum(cm.motzkin_k_terms(w) for w in wd.enumerate_words(n))
        assert terms == _catalan(n - 1)


def test_mixed_labels_vanish():
    assert cm.motzkin_k((1, 2, 1), [('x', 1), ('y', 2), ('x', 1)]).is_zero()


def test_unit_argument_sums_vanish():
    for n in range(2, 5):
        for k in range(n):
            args = [('x', 0)] * n
            args[k] = (UNIT, 0)
            total = ZERO
            for w in wd.enumerate_words(n):
                total = total + cm.motzkin_k(w, args)
            assert total.is_zero()


def test_b_inversion_renderings():
    got = sorted((s, t) for _pi, s, t in cm.B_inversion((1, 2, 1, 1)))
    assert got == [(-1, 'E(a1a2a3)E(a4)'), (1, 'E(a1a2a3a4)')]
    got = [(s, t) for _pi, s, t in cm.B_inversion((1, 2, 2, 1))]
    assert got == [(1, 'E(a1a2a3a4)')]


def test_nested_closed_form_renderings():
    got = sorted((s, t) for _pi, s, t in cm.K_closed_form((1, 2, 2, 1)))
    assert got == sorted([
        (1, 'B_1221(a1,a2,a3,a4)'),
        (-1, 'B_121(a1,a2B_2(a3),a4)'),
        (-1, 'B_121(a1B_2(a2),a3,a4)'),
        (1, 'B_11(a1B_2(a2)B_2(a3),a4)'),
        (-1, 'B_11(a1B_22(a2,a3),a4)'),
    ])
    got = sorted((s, t) for _pi, s, t in cm.K_closed_form((1, 2, 1)))
    assert got == sorted([(1, 'B_121(a1,a2,a3)'),
                          (-1, 'B_11(a1B_2(a2),a3)')])


def test_refinement_coefficients():
    assert cm.refinement_coefficient(
        [(1, 2, 4, 5), (3,)], [(1, 5), (2, 4), (3,)],
        (1, 2, 3, 2, 1)) == -1
    assert cm.refinement_coefficient(
        [(1, 2, 5), (3,), (4,)], [(1, 5), (2,), (3,), (4,)],
        (1, 2, 2, 2, 1)) == -1
    # non-refining pairs get coefficient zero
    assert cm.refinement_coefficient(
        [(1, 2, 3)], [(1, 2), (3,)], (1, 1, 1)) == 0


def refinement_by_membership(pi_prime, pi, w):
    """The coefficient by searching each block's irreducible family."""
    if not sp.refines(pi, pi_prime):
        return 0
    coeff = 1
    for v in pi_prime:
        index = {p: i + 1 for i, p in enumerate(v)}
        inner = sp.normalize([tuple(index[p] for p in b)
                              for b in pi if b[0] in index])
        if inner not in ad.enumerate_adapted(ad.block_subword(w, v), 'irr'):
            return 0
        coeff *= (-1) ** (len(inner) - 1)
    return coeff


def test_refinement_coefficient_matches_membership():
    for n in range(1, 6):
        for w in wd.enumerate_words(n):
            family = ad.enumerate_adapted(w)
            for pi_prime in family:
                for pi in family:
                    assert cm.refinement_coefficient(pi_prime, pi, w) \
                        == refinement_by_membership(pi_prime, pi, w)


def restrictions_irreducible(x, y):
    """x refines y, and x restricted to each block of y, relabelled
    1..|V|, is irreducible: the order of NC_irr(w) written without any
    adaptedness predicate."""
    if not sp.refines(x, y):
        return False
    for v in y:
        index = {p: i + 1 for i, p in enumerate(v)}
        if not sp.is_irreducible(sp.normalize(
                [tuple(index[p] for p in b) for b in x if b[0] in index])):
            return False
    return True


def test_mobius_function_of_irreducible_lattices():
    # mu(x, x) = 1 and mu(x, y) = -sum of mu(x, z) over x <= z < y on
    # NC_irr(w): mu(pi, 1_hat) is (-1)^(|pi| - 1), and mu(x, y) is the
    # coefficient of the nested B-term of x in the nested K of y
    words = [w for n in range(1, 8) for w in wd.enumerate_words(n)]
    assert len(words) == 89
    pairs = 0
    for w in words:
        verts = ad.enumerate_adapted(w, 'irr')
        leq = {(x, y) for x in verts for y in verts
               if restrictions_irreducible(x, y)}
        for x in verts:
            mu = {}
            # finer partitions first, so every z < y comes before y
            for y in sorted((y for y in verts if (x, y) in leq), key=len,
                            reverse=True):
                mu[y] = 1 if y == x else \
                    -sum(m for z, m in mu.items() if (z, y) in leq)
                assert mu[y] == cm.refinement_coefficient(y, x, w), \
                    (w, x, y)
                pairs += 1
            assert mu[(tuple(range(1, len(w) + 1)),)] == \
                (-1) ** (len(x) - 1), (w, x)
    assert pairs == 3383


def test_format_poly_deterministic():
    p = beta_sym(0, ('x', 'y')) - 2 * beta_sym(0, ('x',))
    assert cm.format_poly(p) == '-2*beta(x) + beta(x,y)'


def test_format_poly_constant_terms():
    assert cm.format_poly(Poly.const(3)) == '3'
    assert cm.format_poly(Poly.const(Fraction(-1, 2))) == '-1/2'
    assert cm.format_poly(ONE + m_sym(0, ('x',))) == '1 + m(x)'
    assert cm.format_poly(m_sym(0, ('x',)) - Poly.const(2)) == '-2 + m(x)'
    assert repr(rp.expectation(rp.p_proj(1))) == '(1)*p1'


SYMBOLS = [('m', 0, ('x',)), ('m', 0, ('y',)), ('beta', 1, ('x', 'y'))]
COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=3)
POLY_DICTS = st.dictionaries(
    st.lists(st.sampled_from(SYMBOLS), max_size=3).map(
        lambda ms: tuple(sorted(ms))),
    COEFFS, max_size=4)


def reference_sum(a, b, sign=1):
    out = dict(a)
    for mono, c in b.items():
        out[mono] = out.get(mono, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def reference_product(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = tuple(sorted(m1 + m2))
            out[mono] = out.get(mono, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def assert_exact_types(p):
    for c in p.terms.values():
        assert type(c) is (int if c.denominator == 1 else Fraction)


# an operand as (Poly, reference dict): a random one, or the shared unit
# or zero, which the product hands back instead of building a new Poly
OPERANDS = st.one_of(
    POLY_DICTS.map(lambda d: (Poly(d), {m: c for m, c in d.items() if c})),
    st.sampled_from([(ONE, {(): 1}), (ZERO, {})]))


@settings(max_examples=200, deadline=None)
@given(OPERANDS, OPERANDS, COEFFS)
def test_poly_matches_fraction_reference(pa, qb, s):
    (p, a), (q, b) = pa, qb
    cases = [(p + q, reference_sum(a, b)),
             (p - q, reference_sum(a, b, -1)),
             (p * q, reference_product(a, b)),
             (s * p, {m: s * c for m, c in a.items() if s * c}),
             (p * ONE, a), (ONE * p, a), (p * ZERO, {}), (ZERO * p, {})]
    for got, want in cases:
        assert cm.raw_terms(got) == want
        # raw_terms sorts and merges again: check the stored id keys too
        assert all(list(m) == sorted(m) for m in got.terms)
        assert len(cm.raw_terms(got)) == len(got.terms)
        assert_exact_types(got)
    assert ONE.terms == {(): 1} and ZERO.terms == {}


def test_integral_coefficients_are_int():
    p = cm.moment_to_free(0, ('x',) * 6)
    assert p.terms and all(type(c) is int for c in p.terms.values())
    assert_exact_types(Poly.const(Fraction(4, 2)))
    assert_exact_types(Poly.const(Fraction(1, 2)) * 2)


# Boolean cumulants as the sum over Int(n) first written, kept unchanged
# as the reference for the first-block recurrence.

@lru_cache(maxsize=None)
def frozen_moment_to_boolean(label, args):
    """Boolean cumulant beta(args) expanded in moment symbols."""
    n = len(args)
    out = m_sym(label, args)
    for pi in sp.interval_partitions(n):
        if len(pi) == 1:
            continue
        out = out - cm._prod(frozen_moment_to_boolean(
            label, cm._restrict(args, b)) for b in pi)
    return out


def test_moment_to_boolean_matches_interval_sum():
    cases = [('x',) * n for n in range(1, 9)]
    cases += [tuple('abcdefgh'[:n]) for n in range(1, 9)]
    cases += [w for n in range(1, 9) for w in iproduct(('x', UNIT), repeat=n)]
    cases += [w for n in range(1, 6)
              for w in iproduct(('a', 'b', UNIT), repeat=n)]
    for label in (0, 2):
        for args in cases:
            assert cm.moment_to_boolean(label, args) == \
                frozen_moment_to_boolean(label, args), (label, args)
    with pytest.raises(ValueError):
        cm.moment_to_boolean(0, ())


# Free cumulants as the sum over NC(n) first written, kept unchanged as
# the reference for the first-block recurrence.

@lru_cache(maxsize=None)
def frozen_moment_to_free(label, args):
    """Free cumulant r(args) expanded in moment symbols."""
    n = len(args)
    out = m_sym(label, args)
    for pi in sp.noncrossing_partitions(n):
        if len(pi) == 1:
            continue
        out = out - cm._prod(frozen_moment_to_free(
            label, cm._restrict(args, b)) for b in pi)
    return out


def test_moment_to_free_matches_noncrossing_sum():
    cases = [('x',) * n for n in range(1, 9)]
    cases += [tuple('abcdefgh'[:n]) for n in range(1, 8)]
    cases += [w for n in range(1, 7) for w in iproduct(('x', UNIT), repeat=n)]
    cases += [w for n in range(1, 6)
              for w in iproduct(('a', 'b', UNIT), repeat=n)]
    for label in (0, 2):
        for args in cases:
            assert cm.moment_to_free(label, args) == \
                frozen_moment_to_free(label, args), (label, args)
    with pytest.raises(ValueError):
        cm.moment_to_free(0, ())


def test_poly_built_in_a_spawned_worker_equals_the_parents():
    # symbol ids depend on the order in which a process first meets the
    # symbols; this process meets a marker and the arguments' moments
    # first, so a fresh worker gives the same symbols other ids, and a
    # Poly has to cross by its raw symbols
    args = ('s1', 's2', 's3', 's4')
    Poly.symbol('m', 1, ('pickle-marker',))
    for k in range(1, 5):
        Poly.symbol('m', 1, args[-k:])
    want = cm.transform('m', 'r', 1, args)
    with multiprocessing.get_context('spawn').Pool(1) as pool:
        got = pool.apply_async(cm.transform, ('m', 'r', 1, args)).get(60)
    assert got == want
    assert cm.format_poly(got) == cm.format_poly(want)
    assert pickle.loads(pickle.dumps(want)) == want


def test_output_sorts_by_raw_symbols_not_ids():
    za, zb = ('m', 1, ('za',)), ('m', 2, ('zb',))
    # interned in the reverse of their raw order
    assert cm.intern(zb) < cm.intern(za)
    p = Poly({(za, zb): 1, (zb,): 2, (za, za): -1})
    assert cm.format_poly(p) == \
        '-1*m_1(za)*m_1(za) + m_1(za)*m_2(zb) + 2*m_2(zb)'
    assert cli._poly_json(p, ('za', 'zb')) == [
        {'coeff': '-1', 'monomial': [['m', 1, [1], 1], ['m', 1, [1], 1]]},
        {'coeff': '1', 'monomial': [['m', 1, [1], 1], ['m', 1, [2], 2]]},
        {'coeff': '2', 'monomial': [['m', 1, [2], 2]]}]
