import json
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from ncmotzkin import convolution as cv
from ncmotzkin import cumulants as cm
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
                 for mono, c in expr.terms.items()})


def test_distribution_validation():
    with pytest.raises(ValueError):
        cv.Distribution(('x', 'x'), 1, {('x',): 1})
    with pytest.raises(ValueError):
        cv.Distribution(('x',), 2, {('x',): 0})
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
@given(st.lists(st.text('ab1', min_size=1, max_size=3), min_size=1,
                max_size=3, unique=True),
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


def test_evaluate_rejects_non_moment_symbols():
    mu = bernoulli()
    with pytest.raises(ValueError):
        cv.evaluate(beta_sym(1, ('x',)), mu, mu)


def test_free_product_is_linear_functional():
    # independent copies: mixed moments factor over the labels at order 2
    got = cv.free_product_sym([('a', 1), ('b', 2)])
    m = cm.m_sym
    assert got == m(1, ('a',)) * m(2, ('b',))
