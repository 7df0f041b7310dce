"""Acceptance suite: eleven numbered correctness gates over the whole
package. Each criterion is a list of named Check rows of one type, and
one walker checks them all: it records each row's case count and
seconds, and at the first failing case it names the row and the case
with a one-line check_case reproducer. The 'quick' scale trims
enumeration bounds for a fast smoke run; 'full' runs the complete
desk-scale verification."""

import functools
import time
from collections import namedtuple
from fractions import Fraction
from itertools import product as iproduct

from . import words as wd
from . import partitions as sp
from . import adapted as ad
from . import cumulants as cm
from . import replicas as rp
from . import convolution as cv
from .cumulants import Poly, ZERO, ONE, beta_sym, m_sym


Check = namedtuple('Check', 'name cases holds tops', defaults=((0, 0),))
Check.__doc__ = """One row of a criterion: holds(*case) is true for every
case in cases(top), where top is tops[0] at full scale and tops[1] at
quick scale. Row names are unique across CRITERIA."""


def _fixed(name, holds):
    return Check(name, lambda top: [()], holds)


def _each(name, keys, holds):
    return Check(name, lambda top: [(k,) for k in keys], holds)


def _upto(name, holds, tops):
    return Check(name, lambda top: [(n,) for n in range(1, top + 1)],
                 holds, tops)


def _words(name, holds, tops):
    """holds(w) for every Motzkin word w of length at most top."""
    return Check(name, lambda top: [(w,) for n in range(1, top + 1)
                                    for w in wd.enumerate_words(n)],
                 holds, tops)


def _catalan(n):
    c = 1
    for i in range(n):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


def _vars(n, stem='a'):
    return tuple(f'{stem}{i + 1}' for i in range(n))


def _beta_pi(pi, args, label=0):
    return cm.block_sum(beta_sym, (label,) * len(args), args, (pi,))


def _am_words(n, maxletter=3):
    return [w for w in iproduct(range(1, maxletter + 1), repeat=n)
            if wd.is_motzkin(w)]


def _replicas(w, ell, stem='v'):
    return [rp.replica(f'{stem}{i + 1}', ell[i], w[i])
            for i in range(len(w))]


# ---------------------------------------------------------------- 1

MOTZKIN = [1, 1, 2, 4, 9, 21, 51, 127]

COUNTING = [
    _upto('motzkin-words', lambda n: len(wd.enumerate_words(n))
          == wd.motzkin_number(n - 1) == MOTZKIN[n - 1], (8, 6)),
    _upto('noncrossing', lambda n: len(sp.noncrossing_partitions(n))
          == _catalan(n), (9, 7)),
    _upto('interval', lambda n: len(sp.interval_partitions(n))
          == 2 ** (n - 1), (9, 7)),
    _upto('irreducible', lambda n: len(sp.irreducible_partitions(n))
          == _catalan(n - 1), (9, 7)),
]


# ---------------------------------------------------------------- 2

FIG1_WORD = (1, 1, 2, 2, 1)

FIG1_VERTICES = [
    ((1,), (2, 3, 4, 5)),
    ((1,), (2, 3, 5), (4,)),
    ((1,), (2, 4, 5), (3,)),
    ((1,), (2, 5), (3,), (4,)),
    ((1,), (2, 5), (3, 4)),
    ((1, 2, 3, 4, 5),),
    ((1, 2, 3, 5), (4,)),
    ((1, 2, 4, 5), (3,)),
    ((1, 2, 5), (3,), (4,)),
    ((1, 2, 5), (3, 4)),
]

FIG1_EDGES = [
    (((1,), (2, 3, 4, 5)), ((1, 2, 3, 4, 5),)),
    (((1,), (2, 3, 5), (4,)), ((1,), (2, 3, 4, 5))),
    (((1,), (2, 3, 5), (4,)), ((1, 2, 3, 5), (4,))),
    (((1,), (2, 4, 5), (3,)), ((1,), (2, 3, 4, 5))),
    (((1,), (2, 4, 5), (3,)), ((1, 2, 4, 5), (3,))),
    (((1,), (2, 5), (3,), (4,)), ((1,), (2, 3, 5), (4,))),
    (((1,), (2, 5), (3,), (4,)), ((1,), (2, 4, 5), (3,))),
    (((1,), (2, 5), (3,), (4,)), ((1,), (2, 5), (3, 4))),
    (((1,), (2, 5), (3,), (4,)), ((1, 2, 5), (3,), (4,))),
    (((1,), (2, 5), (3, 4)), ((1,), (2, 3, 4, 5))),
    (((1,), (2, 5), (3, 4)), ((1, 2, 5), (3, 4))),
    (((1, 2, 3, 5), (4,)), ((1, 2, 3, 4, 5),)),
    (((1, 2, 4, 5), (3,)), ((1, 2, 3, 4, 5),)),
    (((1, 2, 5), (3,), (4,)), ((1, 2, 3, 5), (4,))),
    (((1, 2, 5), (3,), (4,)), ((1, 2, 4, 5), (3,))),
    (((1, 2, 5), (3,), (4,)), ((1, 2, 5), (3, 4))),
    (((1, 2, 5), (3, 4)), ((1, 2, 3, 4, 5),)),
]


def _fig1_split():
    """Five irreducible vertices, and five that split off the first letter."""
    verts = ad.enumerate_adapted(FIG1_WORD, 'all')
    rest = [v for v in verts if not sp.is_irreducible(v)]
    return (len(verts) - len(rest) == len(rest) == 5
            and all((1,) in v for v in rest))


FIG1 = [
    _fixed('fig1-vertices', lambda: sorted(
        ad.enumerate_adapted(FIG1_WORD, 'all')) == sorted(FIG1_VERTICES)),
    _fixed('fig1-covers', lambda: sorted(ad.hasse_adapted(FIG1_WORD))
           == sorted(FIG1_EDGES)),
    _fixed('fig1-split', _fig1_split),
]


# ---------------------------------------------------------------- 3

FIG3_COUNTS = {
    (1, 1, 1, 1, 1): 1, (1, 1, 1, 2, 1): 2, (1, 1, 2, 1, 1): 2,
    (1, 1, 2, 2, 1): 5, (1, 2, 1, 1, 1): 2, (1, 2, 1, 2, 1): 4,
    (1, 2, 2, 1, 1): 5, (1, 2, 2, 2, 1): 13, (1, 2, 3, 2, 1): 4,
}

FIG3_12221 = [
    ((1, 2, 3, 4, 5),),
    ((1, 2, 3, 5), (4,)),
    ((1, 2, 4, 5), (3,)),
    ((1, 2, 5), (3,), (4,)),
    ((1, 2, 5), (3, 4)),
    ((1, 3, 4, 5), (2,)),
    ((1, 3, 5), (2,), (4,)),
    ((1, 4, 5), (2,), (3,)),
    ((1, 4, 5), (2, 3)),
    ((1, 5), (2,), (3,), (4,)),
    ((1, 5), (2,), (3, 4)),
    ((1, 5), (2, 3), (4,)),
    ((1, 5), (2, 3, 4)),
]

EX34_MONOTONE = [
    ((1, 5), (2,), (3,), (4,)),
    ((1, 5), (2,), (3, 4)),
    ((1, 5), (2, 3), (4,)),
    ((1, 5), (2, 3, 4)),
]


FIG3 = [
    _each('fig3-counts', FIG3_COUNTS, lambda w: len(
        ad.enumerate_adapted(w, 'irr')) == FIG3_COUNTS[w]),
    _fixed('fig3-12221', lambda: ad.enumerate_adapted(
        (1, 2, 2, 2, 1), 'irr') == FIG3_12221),
    _fixed('ex34-monotone', lambda: ad.enumerate_adapted(
        (1, 2, 2, 2, 1), 'monotone_irr') == EX34_MONOTONE),
]


# ---------------------------------------------------------------- 4

def _join_is_least(w):
    verts = ad.enumerate_adapted(w, 'all')
    # each vertex's up-set as an int bitset over the indices, so
    # upper bounds are an AND and leastness a subset test
    up = [sum(1 << i for i, v in enumerate(verts) if sp.refines(u, v))
          for u in verts]
    index = {v: i for i, v in enumerate(verts)}
    for a, up_a in zip(verts, up):
        for b, up_b in zip(verts, up):
            uppers = up_a & up_b
            j = index.get(ad.join_adapted(a, w, b, w))
            if j is None or not uppers >> j & 1 or uppers & ~up[j]:
                return False
    return True


LATTICE = [
    _words('closure', lambda w: ad.coarsening_closure(w)
           == ad.enumerate_adapted(w, 'all'), (7, 5)),
    _words('join', _join_is_least, (6, 4)),
]


# ---------------------------------------------------------------- 5

def _ex21_free():
    """The univariate order-4 free cumulant in moments."""
    m = {k: Poly.symbol('m', 0, ('x',) * k) for k in range(1, 5)}
    return cm.transform('m', 'r', 0, ('x',) * 4) == (
        m[4] - 4 * m[3] * m[1] - 2 * m[2] * m[2] + 10 * m[2] * m[1] * m[1]
        - 5 * m[1] * m[1] * m[1] * m[1])


def _ex21_boolean():
    b = {k: beta_sym(0, ('x',) * k) for k in range(1, 5)}
    return cm.transform('beta', 'r', 0, ('x',) * 4) == (
        b[4] - 2 * b[3] * b[1] - b[2] * b[2] + b[2] * b[1] * b[1])


def _ex22_multivariate():
    a = _vars(4)
    def bb(*idx):
        return beta_sym(0, tuple(a[i - 1] for i in idx))
    return cm.transform('beta', 'r', 0, a) == (
        bb(1, 2, 3, 4) - bb(1, 2, 4) * bb(3) - bb(1, 3, 4) * bb(2)
        - bb(1, 4) * bb(2, 3) + bb(1, 4) * bb(2) * bb(3))


def _round_trips(top):
    """Univariate arguments to n = top, distinct ones to n = top - 2."""
    return [(args, src, dst) for n in range(1, top + 1)
            for args in [('x',) * n] + ([_vars(n)] if n <= top - 2 else [])
            for src, dst in (('m', 'r'), ('m', 'beta'), ('r', 'beta'))]


def _round_trip(args, src, dst):
    fwd = cm.transform(src, dst, 0, args)
    back = cm.expand_symbols(
        fwd, lambda s: cm.transform(dst, s[0], s[1], s[2]))
    return back == Poly.symbol(dst, 0, args)


TRANSFORMS = [
    _fixed('ex21-free', _ex21_free),
    _fixed('ex21-boolean', _ex21_boolean),
    _fixed('ex22-multivariate', _ex22_multivariate),
    Check('round-trips', _round_trips, _round_trip, (8, 6)),
]


# ---------------------------------------------------------------- 6

EX102_PIECES = {
    (1, 1, 1, 1): [(1, ((1, 2, 3, 4),))],
    (1, 1, 2, 1): [(-1, ((1, 2, 4), (3,)))],
    (1, 2, 1, 1): [(-1, ((1, 3, 4), (2,)))],
    (1, 2, 2, 1): [(-1, ((1, 4), (2, 3))), (1, ((1, 4), (2,), (3,)))],
}

FIG4_PIECES = {
    (1, 1, 1, 1, 1): [(1, ((1, 2, 3, 4, 5),))],
    (1, 1, 1, 2, 1): [(-1, ((1, 2, 3, 5), (4,)))],
    (1, 1, 2, 1, 1): [(-1, ((1, 2, 4, 5), (3,)))],
    (1, 2, 1, 1, 1): [(-1, ((1, 3, 4, 5), (2,)))],
    (1, 2, 1, 2, 1): [(1, ((1, 3, 5), (2,), (4,)))],
    (1, 1, 2, 2, 1): [(-1, ((1, 2, 5), (3, 4))), (1, ((1, 2, 5), (3,), (4,)))],
    (1, 2, 2, 1, 1): [(-1, ((1, 4, 5), (2, 3))), (1, ((1, 4, 5), (2,), (3,)))],
    (1, 2, 2, 2, 1): [(-1, ((1, 5), (2, 3, 4))), (1, ((1, 5), (2, 3), (4,))),
                      (1, ((1, 5), (2,), (3, 4))),
                      (-1, ((1, 5), (2,), (3,), (4,)))],
    (1, 2, 3, 2, 1): [(1, ((1, 5), (2, 4), (3,)))],
}


def _pieces(w):
    x = ('x',) * len(w)
    return cm.motzkin_k(w, [('x', 0)] * len(w)) == sum(
        (Fraction(sign) * _beta_pi(pi, x)
         for sign, pi in {**EX102_PIECES, **FIG4_PIECES}[w]), ZERO)


def _pieces_total(args):
    return sum((cm.motzkin_k(w, [(v, 0) for v in args])
                for w in wd.enumerate_words(len(args))), ZERO) \
        == cm.free_in_boolean(0, args)


DECOMPOSITION = [
    _each('pieces', [*EX102_PIECES, *FIG4_PIECES], _pieces),
    Check('piece-totals', lambda top: [
        (args,) for n in range(1, top + 1) for args in (('x',) * n, _vars(n))],
        _pieces_total, (7, 5)),
    _upto('term-counts', lambda n: sum(
        cm.motzkin_k_terms(w) for w in wd.enumerate_words(n))
        == _catalan(n - 1), (7, 5)),
]


# ---------------------------------------------------------------- 7

EX42_RENDERINGS = {
    (1, 2, 1): [(1, 'B_121(a1,a2,a3)'), (-1, 'B_11(a1B_2(a2),a3)')],
    (1, 2, 1, 1): [(1, 'B_1211(a1,a2,a3,a4)'),
                   (-1, 'B_111(a1B_2(a2),a3,a4)')],
    (1, 1, 2, 1): [(1, 'B_1121(a1,a2,a3,a4)'),
                   (-1, 'B_111(a1,a2B_2(a3),a4)')],
    (1, 2, 2, 1): [(1, 'B_1221(a1,a2,a3,a4)'),
                   (-1, 'B_121(a1,a2B_2(a3),a4)'),
                   (-1, 'B_121(a1B_2(a2),a3,a4)'),
                   (1, 'B_11(a1B_2(a2)B_2(a3),a4)'),
                   (-1, 'B_11(a1B_22(a2,a3),a4)')],
}


def _rendered(expansion, w):
    return sorted((s, t) for _pi, s, t in expansion(w))


EXPANSIONS = [
    _fixed('B-inversion-1221', lambda: _rendered(
        cm.B_inversion, (1, 2, 2, 1)) == [(1, 'E(a1a2a3a4)')]),
    _fixed('B-inversion-1211', lambda: _rendered(
        cm.B_inversion, (1, 2, 1, 1))
        == [(-1, 'E(a1a2a3)E(a4)'), (1, 'E(a1a2a3a4)')]),
    _each('K-closed-forms', EX42_RENDERINGS, lambda w: _rendered(
        cm.K_closed_form, w) == sorted(EX42_RENDERINGS[w])),
    Check('refinement-coefficients', lambda top: [
        ([(1, 2, 4, 5), (3,)], [(1, 5), (2, 4), (3,)], (1, 2, 3, 2, 1)),
        ([(1, 2, 5), (3,), (4,)], [(1, 5), (2,), (3,), (4,)],
         (1, 2, 2, 2, 1))],
        lambda pi, sigma, w: cm.refinement_coefficient(pi, sigma, w) == -1),
]


# ---------------------------------------------------------------- 8

def _bh(label, *names):
    return rp.beta_hat(label, names)


_REP = {'B': rp.B_w_rep, 'K': rp.K_w_rep}


def _rep_examples():
    """The level-1 part of f(w, x-replicas labeled ell) for each key
    (f, w, ell); every other part is zero."""
    return {
        ('B', (1, 2, 1), (1, 2, 1)): _bh(1, 'x1', 'x3') * _bh(2, 'x2'),
        ('B', (1, 2, 2, 1), (1, 2, 2, 1)): _bh(1, 'x1', 'x4')
        * (_bh(2, 'x2', 'x3') + _bh(2, 'x2') * _bh(2, 'x3')),
        ('B', (1, 1, 2, 1), (1, 1, 2, 1)):
        _bh(1, 'x1', 'x2', 'x4') * _bh(2, 'x3'),
        ('B', (1, 2, 3, 2, 1), (1, 2, 1, 2, 1)):
        _bh(1, 'x1', 'x5') * _bh(2, 'x2', 'x4') * _bh(1, 'x3'),
        ('K', (1, 2, 1), (1, 1, 1)): -1 * (_bh(1, 'x2') * _bh(1, 'x1', 'x3')),
        ('K', (1, 2, 2, 1), (1, 1, 1, 1)): _bh(1, 'x1', 'x4')
        * (_bh(1, 'x2') * _bh(1, 'x3') - _bh(1, 'x2', 'x3')),
        ('K', (1, 1, 2, 2, 1), (1, 1, 2, 2, 1)): ZERO,
        ('K', (1, 1, 2, 2, 1), (1, 1, 2, 1, 1)): ZERO,
        ('B', (1, 1, 2, 2, 1), (1, 1, 2, 2, 1)): _bh(1, 'x1', 'x2', 'x5')
        * (_bh(2, 'x3', 'x4') + _bh(2, 'x3') * _bh(2, 'x4')),
        ('B', (1, 1, 2, 2, 1), (1, 1, 2, 1, 1)): ZERO,
    }


REPLICA_EXAMPLES = [
    Check('E-replica', lambda top: list(iproduct((1, 2, 3), (1, 2))),
          lambda j, label: rp.expectation(rp.replica('a', label, j))
          == rp.BElement({j: m_sym(label, ('a',))})),
    _fixed('E-same-color', lambda: rp.expectation(
        rp.replica('a', 1, 2) * rp.replica('b', 2, 2))
        == rp.BElement({2: m_sym(1, ('a',)) * m_sym(2, ('b',))})),
    _fixed('E-different-colors', lambda: rp.expectation(
        rp.replica('a', 1, 1) * rp.replica('b', 2, 2)).is_zero()),
    Check('E-label-sum', lambda top: list(iproduct((1, 2), (1, 2, 3))),
          lambda i, n: rp.expectation(rp.e_label(i, n))
          == rp.BElement({k: 1 for k in range(1, n + 1)})),
    _each('E-projection', (1, 2, 3), lambda n: rp.expectation(rp.p_proj(n))
          == rp.BElement({n: 1})),
    Check('order-one-projection',
          lambda top: list(iproduct((1, 2, 3), (1, 2, 3), 'BK')),
          lambda j, j1, f: _REP[f]((j1,), [rp.p_proj(j)])
          == rp.BElement({j: 1})),
    Check('B-K-examples', lambda top: list(_rep_examples()),
          lambda f, w, ell: _REP[f](w, _replicas(w, ell, 'x'))
          == rp.BElement({1: _rep_examples()[f, w, ell]})),
    # same-label replicas on 121: the moment vanishes, the cumulant not
    _fixed('same-label-121-moment', lambda: _E(
        _replicas((1, 2, 1), (1, 1, 1), 'x')).is_zero()),
]


def _E(args):
    return rp.expectation(rp.rep_product(args))


def _moment(_w, args):
    return _E(args)


class _Args(list):
    """The replicas of one (w, ell), built once for every row, with
    f(w, variant) memoized so that rows share the plain moment and the
    plain B_w and K_w of each variant. The variant bs multiplies a_i by
    p_(bs[i]) wherever bs[i] > 0."""

    def __init__(self, w, ell):
        super().__init__(_replicas(w, ell))
        self.w = w
        self.memo = {}

    def variant(self, bs):
        return [a * rp.p_proj(b) if b else a for a, b in zip(self, bs)]

    def plain(self, f, bs=None):
        key = f, bs or (0,) * len(self)
        if key not in self.memo:
            self.memo[key] = f(self.w, self.variant(key[1]))
        return self.memo[key]


# one _Args per (w, ell), shared by every row that visits it
_args = functools.cache(_Args)


def _lemma(name, lo, cases, sides, tops=(5, 4)):
    """A row of criterion 8 on the replicas a_i = v_i(w_i) with label
    ell_i, for w in _am_words(n), lo <= n <= top, and every labeling ell:
    for each case in cases(w, ell, top), sides(w, ell, aa, *case) gives two
    sides that must be equal, aa being the _Args of (w, ell)."""
    def all_cases(top):
        return [(w, ell) + case for n in range(lo, top + 1)
                for w in _am_words(n) for ell in iproduct((1, 2), repeat=n)
                for case in cases(w, ell, top)]

    def holds(w, ell, *case):
        lhs, rhs = sides(w, ell, _args(w, ell), *case)
        return lhs == rhs
    return Check(name, all_cases, holds, tops)


def _at(aa, k, x):
    return aa[:k] + [x] + aa[k + 1:]


def _ins(aa, k, x):
    return aa[:k] + [x] + aa[k:]


def _labeled_ok(w, ell):
    return all(not (ell[i] == ell[i + 1] and w[i] != w[i + 1])
               for i in range(len(w) - 1))


def _alternating(ell):
    return all(a != b for a, b in zip(ell, ell[1:]))


def _flat(w):
    """Whether w = (j,)*n with j in (1, 2)."""
    return w[0] < 3 and len(set(w)) == 1


def _constant(w, ell, top):
    return [()] if _flat(w) and len(set(ell)) == 1 else []


def _every(w, ell, top):
    return [()]


def _factorized(w, ell, aa):
    want = ONE
    for i, label in enumerate(ell):
        want = want * m_sym(label, (f'v{i + 1}',))
    return aa.plain(_moment), rp.BElement({w[0]: want})


def _factorization(w, ell, aa, k, b):
    head = aa[:k - 1] + [aa[k - 1] * rp.p_proj(b) if b else aa[k - 1]]
    return (_E(head + [rp.p_proj(w[0])] + aa[k:]),
            _E(head) * _E(aa[k:]))


def _local_maxima(w, ell, top):
    n = len(w)
    if not _labeled_ok(w, ell):
        return []
    out = []
    for k in range(n):
        if k > 0 and (ell[k - 1] == ell[k] or w[k - 1] > w[k]):
            continue
        if k < n - 1 and (ell[k] == ell[k + 1] or w[k] < w[k + 1]):
            continue
        flat = ((k == 0 or w[k - 1] == w[k])
                and (k == n - 1 or w[k] == w[k + 1]))
        # the flat case needs every same-label replica at a letter >= the
        # local one; lower tails annihilate the complement letter
        # otherwise (see the regression anchors in the test suite)
        if not (flat and any(m != k and ell[m] == ell[k] and w[m] < w[k]
                             for m in range(n))):
            out.append((k,))
    return out


def _nests(w, ell, top):
    n = len(w)
    if not _labeled_ok(w, ell):
        return []
    return [(k, m) for k in range(1, n) for m in range(k, n - 1)
            if all(w[i] == w[k] for i in range(k, m + 1))
            and w[k - 1] < w[k] > w[m + 1]
            and _alternating(ell[k - 1:m + 2])
            # interior inner replicas must not see a lower same-label
            # letter outside the nest
            and not any(ell[p] == ell[q] and w[p] < w[q]
                        for q in range(k + 1, m)
                        for p in list(range(k)) + list(range(m + 1, n)))]


def _nesting(w, ell, aa, k, m):
    mid = [aa[k]]
    for a in aa[k + 1:m + 1]:
        mid += [rp.p_proj(w[k]), a]
    return (_E(aa[:k] + mid + aa[m + 1:]),
            _E(aa[:k] + [_E(mid).embed()] + aa[m + 1:]))


def _additivity(w, ell, aa):
    ys = _replicas(w, (2,) * len(w), 'y')
    return (rp.K_w_rep(w, [x + y for x, y in zip(aa, ys)]),
            aa.plain(rp.K_w_rep) + rp.K_w_rep(w, ys))


def _standalone(name, f, at_height):
    """The row f(w with j inserted at k, args with p_j inserted at k) = 0
    for each j in 1..3 (only the height of w when at_height) that leaves
    a Motzkin word."""
    def cases(w, ell, top):
        return [(k, j) for k in range(len(w) + 1) for j in (1, 2, 3)
                if (j == w[0] or not at_height)
                and wd.is_motzkin(w[:k] + (j,) + w[k:])]

    def sides(w, ell, aa, k, j):
        return (f(w[:k] + (j,) + w[k:], _ins(aa, k, rp.p_proj(j))),
                rp.B_ZERO)
    return _lemma(name, 2, cases, sides, (4, 3))


def _projected(name, f, proj, same):
    """The row f(w, variant with a_k times p_x) = 0, or = f(w, variant)
    when same, for k < n - 1 and x = proj(w, ell, k, height) when that
    is nonzero. The variants are the plain arguments and, when
    n <= top - 2, those with one extra p_1 or p_2 on one of a_1..a_(n-1)."""
    def cases(w, ell, top):
        n = len(w)
        bss = [(0,) * n] + [(0,) * i + (b,) + (0,) * (n - 1 - i)
                            for i in range(n - 1) for b in (1, 2)
                            if n <= top - 2]
        return [(bs, k) for bs in bss for k in range(n - 1)
                if proj(w, ell, k, w[0])]

    def sides(w, ell, aa, bs, k):
        v = aa.variant(bs)
        lhs = f(w, _at(v, k, v[k] * rp.p_proj(proj(w, ell, k, w[0]))))
        return lhs, aa.plain(f, bs) if same else rp.B_ZERO
    return _lemma(name, 2, cases, sides)


LEMMAS = [
    _lemma('constant-moment', 1, _constant,
           lambda w, ell, aa: (aa.plain(_moment), rp.BElement(
               {w[0]: m_sym(ell[0], _vars(len(w), 'v'))}))),
    _lemma('constant-separated', 1, _constant,
           lambda w, ell, aa: (
               _E([x for a in aa for x in (rp.p_proj(w[0] + 1), a)][1:]),
               rp.BElement({w[0]: rp.beta_hat(ell[0], _vars(len(w), 'v'))}))),
    _lemma('constant-alternating', 2,
           lambda w, ell, top: [()] if _flat(w) and ell[0] == 1
           and _alternating(ell) else [],
           _factorized),
    _lemma('factorization', 2,
           lambda w, ell, top: [(k, b) for k in range(1, len(w))
                                if w[k - 1] == w[0]
                                for b in (0, w[0], w[0] + 1)],
           _factorization),
    _lemma('local-maximum', 1, _local_maxima,
           lambda w, ell, aa, k: (aa.plain(_moment), _E(
               _at(aa, k, rp.p_proj(w[k]))) * m_sym(ell[k], (f'v{k + 1}',)))),
    _lemma('same-label-insertion', 2,
           lambda w, ell, top: [(k,) for k in range(len(w) - 1)
                                if ell[k] == ell[k + 1] and w[k] == w[k + 1]
                                and _labeled_ok(w, ell)],
           lambda w, ell, aa, k: (
               _E(_ins(aa, k + 1, rp.p_proj(w[k] + 1))),
               _E(_ins(aa, k + 1, rp.REP_ONE - rp.p_proj(w[k]))))),
    _lemma('step-insertion', 2,
           lambda w, ell, top: [(k,) for k in range(len(w) - 1)
                                if ell[k] != ell[k + 1]
                                and abs(w[k] - w[k + 1]) == 1
                                and _labeled_ok(w, ell)],
           lambda w, ell, aa, k: (
               _E(_ins(aa, k + 1, rp.p_proj(max(w[k], w[k + 1])))),
               aa.plain(_moment))),
    _lemma('nesting', 3, _nests, _nesting),
    _lemma('pair-deletion', 2,
           lambda w, ell, top: [(k,) for k in range(len(w))
                                if _flat(w) and _alternating(ell)],
           lambda w, ell, aa, k: (
               _E(_at(aa, k, aa[k] + rp.replica(f'v{k + 1}', ell[k],
                                                w[k] + 1))),
               _E(aa[:k] + aa[k + 1:]) * _E([aa[k]]))),
    _standalone('K-standalone-p', rp.K_w_rep, False),
    _standalone('B-standalone-p', rp.B_w_rep, True),
    _lemma('additivity', 1,
           lambda w, ell, top: [()] if w[0] == 1 and set(ell) == {1} else [],
           _additivity, (4, 4)),
    _lemma('B-closed-form', 1, _every,
           lambda w, ell, aa: (aa.plain(rp.B_w_rep), rp.B_closed_form(
               w, _vars(len(w), 'v'), ell))),
    _lemma('K-closed-form', 1, _every,
           lambda w, ell, aa: (aa.plain(rp.K_w_rep), rp.K_closed_form_rep(
               w, _vars(len(w), 'v'), ell))),
    _lemma('K-inversion', 1, _every,
           lambda w, ell, aa: (aa.plain(rp.K_w_rep), rp.K_closed_rep(w, aa))),
    _projected('B-middle-projection', rp.B_w_rep,
               lambda w, ell, k, j: j, False),
    _projected('K-middle-projection', rp.K_w_rep,
               lambda w, ell, k, j: j, False),
    _projected('B-mixed-insertion', rp.B_w_rep,
               lambda w, ell, k, j: j + 1 if w[k] == w[k + 1] == j
               and ell[k] != ell[k + 1] else 0, False),
    _projected('B-deletion-1', rp.B_w_rep,
               lambda w, ell, k, j: w[k] + 1 if len(set(ell)) == 1
               and w[k] == w[k + 1] else 0, True),
    _projected('B-deletion-2', rp.B_w_rep,
               lambda w, ell, k, j: max(w[k], w[k + 1])
               if ell[k] != ell[k + 1] and abs(w[k] - w[k + 1]) == 1 else 0,
               True),
    _projected('K-deletion', rp.K_w_rep,
               lambda w, ell, k, j: j + 1 if len(set(ell)) == 1
               and min(w[k], w[k + 1]) == j else 0, True),
]


# ---------------------------------------------------------------- 9

def _free_moments(n):
    names = _vars(n)
    ell = tuple(1 + (i % 2) for i in range(n))
    return sum((rp.zeta_E(rp.replica_word(names, ell, w))
                for w in wd.enumerate_words(n)), ZERO) \
        == cv.free_product_sym(list(zip(names, ell)))


def _unit_vanishes(n, k):
    args = [('x', 0)] * n
    args[k] = (cm.UNIT, 0)
    return sum((cm.motzkin_k(w, args) for w in wd.enumerate_words(n)),
               ZERO).is_zero()


FREE_MOMENTS = [
    _upto('free-moments', _free_moments, (6, 5)),
    Check('unit-vanishing', lambda top: [
        (n, k) for n in range(2, top + 1) for k in range(n)],
        _unit_vanishes, (5, 4)),
]


# ---------------------------------------------------------------- 10

def _B(label, *idx):
    return beta_sym(label, tuple(f'a{i}' for i in idx))


def _b2m(p):
    return cm.expand_symbols(
        p, lambda s: cm.moment_to_boolean(s[1], s[2])
        if s[0] == 'beta' else Poly({(s,): 1}))


def _four_letter_part(w):
    """w's part in Boolean cumulants is a half plus its mirror."""
    B = _B
    half = {
        (1, 1, 2, 1): B(1, 1, 2, 4) * B(2, 3)
        + B(1, 1) * B(1, 2, 4) * B(2, 3) + B(2, 1) * B(1, 2, 4) * B(2, 3),
        (1, 2, 1, 1): B(1, 1, 3, 4) * B(2, 2)
        + B(1, 1, 3) * B(2, 2) * B(1, 4) + B(1, 1, 3) * B(2, 2) * B(2, 4),
        (1, 2, 2, 1): B(1, 1, 4) * (B(2, 2, 3) + B(2, 2) * B(2, 3)),
    }[w]
    return sum((val for _pi, _ell, val in cv.boxplus_w_beta_terms(
        w, _vars(len(w)))), ZERO) == half + cm.mirror(half)


def _linearized_1221():
    def k(word, idx, label):
        return cm.motzkin_k(word, [(f'a{i}', label) for i in idx])

    def lin(word, idx):
        return k(word, idx, 1) + k(word, idx, 2)

    resolved = lin((1, 2, 2, 1), (1, 2, 3, 4)) \
        + lin((1, 2, 1), (1, 2, 4)) * lin((2,), (3,)) \
        + lin((1, 2, 1), (1, 3, 4)) * lin((2,), (2,)) \
        + lin((1, 1), (1, 4)) * lin((2, 2), (2, 3)) \
        + lin((1, 1), (1, 4)) * lin((1,), (2,)) * lin((1,), (3,))
    return cv.boxplus_w_sym((1, 2, 2, 1), _vars(4)) == _b2m(resolved)


def _routes_agree(w):
    r1, r2, r3 = (cv.boxplus_w_sym(w, _vars(len(w)), route)
                  for route in ('replica', 'monotone', 'nested'))
    return r1 == r2 == r3


def _labelings_sum(product, names):
    return sum((product(list(zip(names, ell)))
                for ell in iproduct((1, 2), repeat=len(names))), ZERO)


CONVOLUTION = [
    _each('four-letter-parts', [(1, 1, 2, 1), (1, 2, 1, 1), (1, 2, 2, 1)],
          _four_letter_part),
    _fixed('three-letter-difference', lambda: cv.delta_sym(
        ('a1', 'a2', 'a3')) == _b2m(_B(1, 2) * _B(2, 1, 3)
                                   + _B(2, 2) * _B(1, 1, 3))),
    _fixed('linearized-1221', _linearized_1221),
    _words('routes', _routes_agree, (5, 4)),
    _upto('free-total', lambda n: cv.boxplus_total_sym(_vars(n))
          == _labelings_sum(cv.free_product_sym, _vars(n)), (6, 5)),
    _upto('boolean-constant', lambda n: cv.boxplus_w_sym(
        (1,) * n, _vars(n))
        == _labelings_sum(cv.boolean_product_sym, _vars(n)), (6, 5)),
]


# ---------------------------------------------------------------- 11

FIG4_TABLEAUX = {
    (1, 1, 1, 1, 1): [[1, 2, 3, 4]],
    (1, 1, 1, 2, 1): [[1, 2, 3], [4]],
    (1, 1, 2, 1, 1): [[1, 2, 4], [3]],
    (1, 1, 2, 2, 1): [[1, 2], [3], [4]],
    (1, 2, 1, 1, 1): [[1, 3, 4], [2]],
    (1, 2, 1, 2, 1): [[1, 3], [2, 4]],
    (1, 2, 2, 1, 1): [[1, 4], [2], [3]],
    (1, 2, 2, 2, 1): [[1, 3], [2], [4]],
    (1, 2, 3, 2, 1): [[1, 2], [3, 4]],
}


def _all_tableaux(m):
    if m == 0:
        return [[]]
    out = []

    def rec(rows, nxt):
        if nxt > m:
            out.append([list(r) for r in rows if r])
            return
        for i in range(3):
            if i > 0 and len(rows[i]) >= len(rows[i - 1]):
                continue
            rows[i].append(nxt)
            rec(rows, nxt + 1)
            rows[i].pop()

    rec([[], [], []], 1)
    return out


def _fig4_tableau(w):
    tab = FIG4_TABLEAUX[w]
    return wd.to_tableau(w) == tab and wd.from_tableau(tab) == w


def _bijection(n):
    words = wd.enumerate_words(n)
    images = [wd.to_tableau(w) for w in words]
    return (len({str(t) for t in images}) == len(words)
            == len(_all_tableaux(n - 1))
            and all(wd.from_tableau(t) == w for w, t in zip(words, images)))


SYT = [
    _each('fig4-tableaux', FIG4_TABLEAUX, _fig4_tableau),
    _upto('bijection', _bijection, (8, 6)),
]


# ---------------------------------------------------------------- driver

CRITERIA = [
    (1, 'counting suite', COUNTING),
    (2, 'five-letter lattice reproduction', FIG1),
    (3, 'irreducible family reproduction', FIG3),
    (4, 'coarsening closure and join', LATTICE),
    (5, 'cumulant transforms', TRANSFORMS),
    (6, 'homogeneous decomposition of free cumulants', DECOMPOSITION),
    (7, 'inversion and closed-form expansions', EXPANSIONS),
    (8, 'replica model suite', REPLICA_EXAMPLES + LEMMAS),
    (9, 'free moments and unit vanishing', FREE_MOMENTS),
    (10, 'convolution decomposition', CONVOLUTION),
    (11, 'tableau bijection', SYT),
]


def walk(rows, scale):
    """Check every case of each row in turn at scale 'full' or 'quick'.
    Returns each passing row's (name, case count, seconds), in order, and
    (name, case) of the first failing case, or None. A value that rows
    share is timed in the first row that asks for it."""
    if scale not in ('full', 'quick'):
        raise ValueError(f"scale must be 'full' or 'quick', not {scale!r}")
    stats = []
    for row in rows:
        t0 = time.perf_counter()
        count = 0
        for case in row.cases(row.tops[scale == 'quick']):
            count += 1
            if not row.holds(*case):
                return stats, (row.name, case)
        stats.append((row.name, count, time.perf_counter() - t0))
    return stats, None


def check_case(name, *case):
    """Whether the named row of any criterion holds on one case; a failing
    criterion prints this call for its first failing case."""
    row = next(row for _n, _title, rows in CRITERIA for row in rows
               if row.name == name)
    return row.holds(*case)


def _detail(stats, failed):
    if failed:
        name, case = failed
        at = f' at {", ".join(map(repr, case))}' if case else ''
        call = ', '.join(map(repr, (name,) + case))
        return (f'{name} fails{at}; reproduce with python -c "from '
                f'ncmotzkin import acceptance as a; '
                f'print(a.check_case({call}))"')
    table = ', '.join(f'{name} {count} {sec:.2f}s'
                      for name, count, sec in stats)
    return f'{sum(count for _name, count, _sec in stats)} cases: {table}'


def run_criterion(num, scale='full'):
    """(ok, detail, seconds) of criterion num; the detail gives each
    row's case count and seconds, or the first failing case with a
    one-line reproducer."""
    for n, _title, rows in CRITERIA:
        if n == num:
            t0 = time.perf_counter()
            stats, failed = walk(rows, scale)
            return (failed is None, _detail(stats, failed),
                    time.perf_counter() - t0)
    raise ValueError(f'no criterion {num}')


def run(scale='full', out=print, jobs=1):
    """Run all criteria; returns True iff every one passes."""
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        # a fork pool starts all its workers at the first submit, and no
        # more than one per criterion can be busy
        workers = min(jobs, len(CRITERIA))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [(n, name, pool.submit(run_criterion, n, scale))
                       for n, name, _rows in CRITERIA]
            results = [(n, name) + f.result() for n, name, f in futures]
    else:
        results = [(n, name) + run_criterion(n, scale)
                   for n, name, _rows in CRITERIA]
    for n, name, ok, detail, dt in results:
        status = 'PASS' if ok else 'FAIL'
        out(f'[{status}] criterion {n:2d} ({name}): {detail} [{dt:.1f}s]')
    all_ok = all(ok for _n, _name, ok, _detail, _dt in results)
    out('ALL PASS' if all_ok else 'FAILURES PRESENT')
    return all_ok
