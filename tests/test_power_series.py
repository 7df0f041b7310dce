"""Univariate moment-cumulant relations checked against exact `Fraction`
power series: an oracle that shares no code with the partition
enumerators (Nica-Speicher, Lectures on the Combinatorics of Free
Probability, 2006, on the R-transform).

A series is the list of its coefficients up to order N; M(z) = 1 +
sum m_n z^n is the moment series of one variable."""

from fractions import Fraction
from random import Random

import pytest

from ncmotzkin import convolution as cv
from ncmotzkin import cumulants as cm

N = 12


def mul(f, g):
    return [sum(f[i] * g[k - i] for i in range(k + 1))
            for k in range(len(f))]


def free_cumulants(m):
    """r_1..r_n from M(z) = 1 + sum_n r_n z^n M(z)^n: the coefficient of
    z^j on the right is r_j plus terms in r_k, k < j."""
    powers = [[1] + [0] * (len(m) - 1)]
    for _k in range(1, len(m)):
        powers.append(mul(powers[-1], m))
    r = [0] * len(m)
    for j in range(1, len(m)):
        r[j] = m[j] - sum(r[k] * powers[k][j - k] for k in range(1, j))
    return r


def boolean_cumulants(m):
    """beta_1..beta_n from M(z) = 1/(1 - B(z)), i.e. B = 1 - 1/M."""
    inv = [Fraction(1)] + [0] * (len(m) - 1)
    for j in range(1, len(m)):
        inv[j] = -sum(m[i] * inv[j - i] for i in range(1, j + 1))
    return [0] + [-c for c in inv[1:]]


def moments_from_free(r):
    """M from its free cumulants: iterate M <- 1 + sum_k r_k z^k M^k, which
    fixes one more coefficient each round."""
    m = [1] + [0] * (len(r) - 1)
    for _round in range(1, len(r)):
        new = [1] + [0] * (len(r) - 1)
        power = [1] + [0] * (len(r) - 1)
        for k in range(1, len(r)):
            power = mul(power, m)
            for j in range(k, len(r)):
                new[j] += r[k] * power[j - k]
        m = new
    return m


def moments_from_boolean(beta):
    """M = 1/(1 - B)."""
    m = [Fraction(1)] + [0] * (len(beta) - 1)
    for j in range(1, len(beta)):
        m[j] = sum(beta[i] * m[j - i] for i in range(1, j + 1))
    return m


def seeded_moments(seed, n=N):
    rng = Random(seed)
    return [Fraction(1)] + [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                            for _ in range(n)]


def at(poly, m, kind='m'):
    """A polynomial in the symbols of one kind of one variable (moments
    by default), at the values m."""
    total = Fraction(0)
    for mono, c in poly.terms.items():
        term = Fraction(c)
        for sym_kind, _label, args in mono:
            assert sym_kind == kind
            term *= m[len(args)]
        total += term
    return total


def test_series_helpers_agree():
    # the semicircle law: r = (0, 1, 0, ...), moments the Catalan numbers
    r = [0, 0, 1] + [0] * (N - 2)
    m = moments_from_free(r)
    assert m[:9] == [1, 0, 1, 0, 2, 0, 5, 0, 14]
    assert free_cumulants(m) == r
    # the Bernoulli law on +-1: beta = (0, 1, 0, ...), moments 1, 0, 1, ...
    beta = [0, 0, 1] + [0] * (N - 2)
    assert moments_from_boolean(beta) == [1, 0] * 6 + [1]
    assert boolean_cumulants(moments_from_boolean(beta)) == beta


@pytest.mark.parametrize('seed', [1, 2, 3])
def test_transform_matches_power_series(seed):
    m = seeded_moments(seed)
    r = free_cumulants(m)
    beta = boolean_cumulants(m)
    for n in range(1, N + 1):
        args = ('x',) * n
        assert at(cm.transform('m', 'r', 1, args), m) == r[n], n
        assert at(cm.transform('m', 'beta', 2, args), m) == beta[n], n


def test_free_decomposition_sums_to_free_cumulants():
    # the k_w of the reduced words of length n sum to r_n in Boolean
    # cumulants; here at seeded numbers, against r_n of M = 1/(1 - B)
    parts = {n: list(cm.free_decomposition(n).values())
             for n in range(1, 11)}
    for seed in (6, 7):
        rng = Random(seed)
        beta = [0] + [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                      for _ in range(10)]
        r = free_cumulants(moments_from_boolean(beta))
        for n, ks in parts.items():
            assert sum(at(k, beta, 'beta') for k in ks) == r[n], (seed, n)


def convolved_moments(seed):
    """Two seeded distributions of order 9 and the moments of their free
    and Boolean convolutions, by adding R- and B-transforms."""
    m1 = seeded_moments(seed, 9)
    m2 = seeded_moments(seed + 100, 9)
    free = moments_from_free([a + b for a, b in zip(free_cumulants(m1),
                                                    free_cumulants(m2))])
    boolean = moments_from_boolean(
        [a + b for a, b in zip(boolean_cumulants(m1), boolean_cumulants(m2))])
    return (cv.univariate_distribution(m1[1:]),
            cv.univariate_distribution(m2[1:]), free, boolean)


@pytest.mark.parametrize('seed', [4, 5])
def test_convolution_adds_r_transforms(seed):
    mu1, mu2, free, boolean = convolved_moments(seed)
    for n in range(1, 10):
        x = ('x',) * n
        assert cv.boxplus_total(mu1, mu2, x) == free[n], n
        assert cv.uplus_total(mu1, mu2, x) == boolean[n], n
        if n <= 7:
            assert cv.boxplus_total(mu1, mu2, x, 'replica') == free[n], n
        if n <= 5:
            assert cv.boxplus_total(mu1, mu2, x, 'nested') == free[n], n


def test_nested_route_adds_r_transforms_at_six_and_seven():
    # 6 and 7 are the first lengths where NC(w) under a sibling rule per
    # outer block, not per gap of it, loses partitions (at 6: in the
    # parts 122321 and 123221), and the total with them
    mu1, mu2, free, _boolean = convolved_moments(4)
    for n in (6, 7):
        assert cv.boxplus_total(mu1, mu2, ('x',) * n, 'nested') == free[n], n
