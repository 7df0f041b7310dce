"""Acceptance suite: eleven numbered correctness gates over the whole
package, each returning pass/fail with a one-line detail. The 'quick'
scale trims enumeration bounds for a fast smoke run; 'full' runs the
complete desk-scale verification."""

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

def crit_counting(scale):
    motzkin = [1, 1, 2, 4, 9, 21, 51, 127]
    nmax = 8 if scale == 'full' else 6
    pmax = 9 if scale == 'full' else 7
    for n in range(1, nmax + 1):
        if len(wd.enumerate_words(n)) != motzkin[n - 1]:
            return False, f'|M_{n}| != {motzkin[n - 1]}'
        if wd.motzkin_number(n - 1) != motzkin[n - 1]:
            return False, f'recurrence mismatch at {n}'
    for n in range(1, pmax + 1):
        if len(sp.noncrossing_partitions(n)) != _catalan(n):
            return False, f'|NC({n})| != Catalan({n})'
        if len(sp.interval_partitions(n)) != 2 ** (n - 1):
            return False, f'|Int({n})| != 2^{n - 1}'
        if len(sp.irreducible_partitions(n)) != _catalan(n - 1):
            return False, f'|NC_irr({n})| != Catalan({n - 1})'
    return True, f'words to n={nmax}, partitions to n={pmax}'


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


def crit_fig1(scale):
    verts = ad.enumerate_adapted(FIG1_WORD, 'all')
    if sorted(verts) != sorted(FIG1_VERTICES):
        return False, 'vertex set mismatch'
    edges = ad.hasse_adapted(FIG1_WORD)
    if sorted(edges) != sorted(FIG1_EDGES):
        return False, 'cover relations mismatch'
    irr = [v for v in verts if sp.is_irreducible(v)]
    rest = [v for v in verts if not sp.is_irreducible(v)]
    if len(irr) != 5 or len(rest) != 5:
        return False, 'split is not 5 + 5'
    if not all((1,) in v for v in rest):
        return False, 'reducible part does not split off the first letter'
    return True, '10 vertices, 17 cover edges, split 5 + 5'


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


def crit_fig3(scale):
    for w, count in FIG3_COUNTS.items():
        if len(ad.enumerate_adapted(w, 'irr')) != count:
            return False, f'count mismatch at {wd.format_word(w)}'
    if ad.enumerate_adapted((1, 2, 2, 2, 1), 'irr') != FIG3_12221:
        return False, 'the 13 diagrams of 12221 do not match'
    if ad.enumerate_adapted((1, 2, 2, 2, 1), 'monotone_irr') != EX34_MONOTONE:
        return False, 'monotone subset of 12221 does not match'
    return True, 'all nine rows of the irreducible table match'


# ---------------------------------------------------------------- 4

def crit_lattice(scale):
    nclos = 7 if scale == 'full' else 5
    njoin = 6 if scale == 'full' else 4
    for n in range(1, nclos + 1):
        for w in wd.enumerate_words(n):
            if ad.coarsening_closure(w) != ad.enumerate_adapted(w, 'all'):
                return False, f'closure != filter at {wd.format_word(w)}'
    for n in range(1, njoin + 1):
        for w in wd.enumerate_words(n):
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
                    if j is None or not uppers >> j & 1:
                        return False, f'join not an upper bound at {w}'
                    if uppers & ~up[j]:
                        return False, f'join not least at {w}'
    return True, f'closure to n={nclos}, join to n={njoin}'


# ---------------------------------------------------------------- 5

def crit_transforms(scale):
    x = ('x',) * 4
    # order-4 free cumulant in moments, univariate
    m = {k: Poly.symbol('m', 0, ('x',) * k) for k in range(1, 5)}
    ex21 = (m[4] - 4 * m[3] * m[1] - 2 * m[2] * m[2]
            + 10 * m[2] * m[1] * m[1]
            - 5 * m[1] * m[1] * m[1] * m[1])
    if cm.transform('m', 'r', 0, x) != ex21:
        return False, 'univariate order-4 free cumulant mismatch'
    b = {k: beta_sym(0, ('x',) * k) for k in range(1, 5)}
    ex21b = b[4] - 2 * b[3] * b[1] - b[2] * b[2] + b[2] * b[1] * b[1]
    if cm.transform('beta', 'r', 0, x) != ex21b:
        return False, 'univariate order-4 Boolean expansion mismatch'
    a = _vars(4)
    def bb(*idx):
        return beta_sym(0, tuple(a[i - 1] for i in idx))
    ex22 = (bb(1, 2, 3, 4) - bb(1, 2, 4) * bb(3) - bb(1, 3, 4) * bb(2)
            - bb(1, 4) * bb(2, 3) + bb(1, 4) * bb(2) * bb(3))
    if cm.transform('beta', 'r', 0, a) != ex22:
        return False, 'multivariate order-4 expansion mismatch'
    nuni = 8 if scale == 'full' else 6
    nmulti = 6 if scale == 'full' else 4
    pairs = [('m', 'r'), ('m', 'beta'), ('r', 'beta')]
    for n in range(1, nuni + 1):
        for args in [('x',) * n] + ([_vars(n)] if n <= nmulti else []):
            for src, dst in pairs:
                fwd = cm.transform(src, dst, 0, args)
                back = cm.expand_symbols(
                    fwd, lambda s: cm.transform(dst, s[0], s[1], s[2]))
                if back != Poly.symbol(dst, 0, args):
                    return False, f'round trip {src}->{dst} fails at n={n}'
    return True, f'round trips to n={nuni} univariate, n={nmulti} multivariate'


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


def crit_decomposition(scale):
    for table in (EX102_PIECES, FIG4_PIECES):
        n = len(next(iter(table)))
        args = [('x', 0)] * n
        x = ('x',) * n
        for w, pieces in table.items():
            expected = ZERO
            for sign, pi in pieces:
                expected = expected + Fraction(sign) * _beta_pi(pi, x)
            if cm.motzkin_k(w, args) != expected:
                return False, f'piece mismatch at {wd.format_word(w)}'
    nmax = 7 if scale == 'full' else 5
    for n in range(1, nmax + 1):
        for args in (('x',) * n, _vars(n)):
            total = ZERO
            for w in wd.enumerate_words(n):
                total = total + cm.motzkin_k(w, [(v, 0) for v in args])
            if total != cm.free_in_boolean(0, args):
                return False, f'sum of pieces != free cumulant at n={n}'
        terms = sum(cm.motzkin_k_terms(w) for w in wd.enumerate_words(n))
        if terms != _catalan(n - 1):
            return False, f'term count != Catalan({n - 1}) at n={n}'
    return True, f'pieces fixed at n=4,5; totals to n={nmax}'


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


def crit_expansions(scale):
    got = [(s, t) for _pi, s, t in cm.B_inversion((1, 2, 2, 1))]
    if got != [(1, 'E(a1a2a3a4)')]:
        return False, 'B inversion of 1221 mismatch'
    got = sorted((s, t) for _pi, s, t in cm.B_inversion((1, 2, 1, 1)))
    if got != [(-1, 'E(a1a2a3)E(a4)'), (1, 'E(a1a2a3a4)')]:
        return False, 'B inversion of 1211 mismatch'
    for w, expected in EX42_RENDERINGS.items():
        got = sorted(((s, t) for _pi, s, t in cm.K_closed_form(w)),
                     key=lambda e: (-len(e[1]), e[1]))
        if sorted(got) != sorted(expected):
            return False, f'K closed form mismatch at {wd.format_word(w)}'
    c1 = cm.refinement_coefficient(
        [(1, 2, 4, 5), (3,)], [(1, 5), (2, 4), (3,)], (1, 2, 3, 2, 1))
    c2 = cm.refinement_coefficient(
        [(1, 2, 5), (3,), (4,)], [(1, 5), (2,), (3,), (4,)],
        (1, 2, 2, 2, 1))
    if (c1, c2) != (-1, -1):
        return False, f'refinement coefficients {(c1, c2)} != (-1, -1)'
    return True, 'inversions, closed forms and refinements fixed'


# ---------------------------------------------------------------- 8

def _bh(label, *names):
    return rp.beta_hat(label, names)


def _check_examples_replicas():
    for j in (1, 2, 3):
        for label in (1, 2):
            a = rp.replica('a', label, j)
            if rp.expectation(a) != rp.BElement({j: m_sym(label, ('a',))}):
                return f'E(a({j})) mismatch'
    x = rp.replica('a', 1, 2) * rp.replica('b', 2, 2)
    if rp.expectation(x) != rp.BElement(
            {2: m_sym(1, ('a',)) * m_sym(2, ('b',))}):
        return 'mixed-label same-color moment mismatch'
    x = rp.replica('a', 1, 1) * rp.replica('b', 2, 2)
    if not rp.expectation(x).is_zero():
        return 'different-color product moment should vanish'
    for i in (1, 2):
        for n in (1, 2, 3):
            if rp.expectation(rp.e_label(i, n)) != rp.BElement(
                    {k: 1 for k in range(1, n + 1)}):
                return f'E(e_{i},{n}) mismatch'
            if rp.expectation(rp.p_proj(n)) != rp.BElement({n: 1}):
                return f'E(p_{n}) mismatch'
    for j, j1 in iproduct((1, 2, 3), repeat=2):
        for f in (rp.B_w_rep, rp.K_w_rep):
            if f((j1,), [rp.p_proj(j)]) != rp.BElement({j: 1}):
                return f'order-one {f.__name__[0]} of a projection mismatch'

    def B(w, labels):
        return rp.B_w_rep(w, _replicas(w, labels, 'x'))

    def K(w, labels):
        return rp.K_w_rep(w, _replicas(w, labels, 'x'))

    if B((1, 2, 1), (1, 2, 1)) != rp.BElement(
            {1: _bh(1, 'x1', 'x3') * _bh(2, 'x2')}):
        return 'B_121 example mismatch'
    if B((1, 2, 2, 1), (1, 2, 2, 1)) != rp.BElement(
            {1: _bh(1, 'x1', 'x4')
             * (_bh(2, 'x2', 'x3') + _bh(2, 'x2') * _bh(2, 'x3'))}):
        return 'B_1221 example mismatch'
    if B((1, 1, 2, 1), (1, 1, 2, 1)) != rp.BElement(
            {1: _bh(1, 'x1', 'x2', 'x4') * _bh(2, 'x3')}):
        return 'B_1121 example mismatch'
    if B((1, 2, 3, 2, 1), (1, 2, 1, 2, 1)) != rp.BElement(
            {1: _bh(1, 'x1', 'x5') * _bh(2, 'x2', 'x4') * _bh(1, 'x3')}):
        return 'B_12321 example mismatch'
    if K((1, 2, 1), (1, 1, 1)) != rp.BElement(
            {1: -1 * (_bh(1, 'x2') * _bh(1, 'x1', 'x3'))}):
        return 'K_121 example mismatch'
    if K((1, 2, 2, 1), (1, 1, 1, 1)) != rp.BElement(
            {1: _bh(1, 'x1', 'x4')
             * (_bh(1, 'x2') * _bh(1, 'x3') - _bh(1, 'x2', 'x3'))}):
        return 'K_1221 example mismatch'
    if not K((1, 1, 2, 2, 1), (1, 1, 2, 2, 1)).is_zero():
        return 'mixed-label K_11221 should vanish'
    if not K((1, 1, 2, 2, 1), (1, 1, 2, 1, 1)).is_zero():
        return 'mixed-label K_11221 variant should vanish'
    if B((1, 1, 2, 2, 1), (1, 1, 2, 2, 1)) != rp.BElement(
            {1: _bh(1, 'x1', 'x2', 'x5')
             * (_bh(2, 'x3', 'x4') + _bh(2, 'x3') * _bh(2, 'x4'))}):
        return 'B_11221 example mismatch'
    if not B((1, 1, 2, 2, 1), (1, 1, 2, 1, 1)).is_zero():
        return 'B_11221 with labels 11211 should vanish'
    # same-label replicas on 121: the moment vanishes, the cumulant does not
    args = _replicas((1, 2, 1), (1, 1, 1), 'x')
    if not rp.expectation(rp.rep_product(args)).is_zero():
        return 'same-label 121 moment should vanish'
    if rp.K_w_rep((1, 2, 1), args) != rp.BElement(
            {1: -1 * (_bh(1, 'x1', 'x3') * _bh(1, 'x2'))}):
        return 'same-label K_121 mismatch'
    return None


Lemma = namedtuple('Lemma', 'name lo cases sides tops', defaults=((5, 4),))
Lemma.__doc__ = """One lemma of criterion 8 on the replicas a_i = v_i(w_i)
with label ell_i, for w in _am_words(n) and every labeling ell: for each
case in cases(w, ell, top), sides(w, ell, aa, *case) gives two sides that
must be equal, aa being the _Args of (w, ell). The row runs for
lo <= n <= top, where top is tops[0] at full scale and tops[1] at quick
scale."""


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
    return Lemma(name, 2, cases, sides, (4, 3))


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
    return Lemma(name, 2, cases, sides)


LEMMAS = [
    Lemma('constant-moment', 1, _constant,
          lambda w, ell, aa: (aa.plain(_moment), rp.BElement(
              {w[0]: m_sym(ell[0], _vars(len(w), 'v'))}))),
    Lemma('constant-separated', 1, _constant,
          lambda w, ell, aa: (
              _E([x for a in aa for x in (rp.p_proj(w[0] + 1), a)][1:]),
              rp.BElement({w[0]: rp.beta_hat(ell[0], _vars(len(w), 'v'))}))),
    Lemma('constant-alternating', 2,
          lambda w, ell, top: [()] if _flat(w) and ell[0] == 1
          and _alternating(ell) else [],
          _factorized),
    Lemma('factorization', 2,
          lambda w, ell, top: [(k, b) for k in range(1, len(w))
                               if w[k - 1] == w[0]
                               for b in (0, w[0], w[0] + 1)],
          _factorization),
    Lemma('local-maximum', 1, _local_maxima,
          lambda w, ell, aa, k: (aa.plain(_moment), _E(
              _at(aa, k, rp.p_proj(w[k]))) * m_sym(ell[k], (f'v{k + 1}',)))),
    Lemma('same-label-insertion', 2,
          lambda w, ell, top: [(k,) for k in range(len(w) - 1)
                               if ell[k] == ell[k + 1] and w[k] == w[k + 1]
                               and _labeled_ok(w, ell)],
          lambda w, ell, aa, k: (
              _E(_ins(aa, k + 1, rp.p_proj(w[k] + 1))),
              _E(_ins(aa, k + 1, rp.REP_ONE - rp.p_proj(w[k]))))),
    Lemma('step-insertion', 2,
          lambda w, ell, top: [(k,) for k in range(len(w) - 1)
                               if ell[k] != ell[k + 1]
                               and abs(w[k] - w[k + 1]) == 1
                               and _labeled_ok(w, ell)],
          lambda w, ell, aa, k: (
              _E(_ins(aa, k + 1, rp.p_proj(max(w[k], w[k + 1])))),
              aa.plain(_moment))),
    Lemma('nesting', 3, _nests, _nesting),
    Lemma('pair-deletion', 2,
          lambda w, ell, top: [(k,) for k in range(len(w))
                               if _flat(w) and _alternating(ell)],
          lambda w, ell, aa, k: (
              _E(_at(aa, k, aa[k] + rp.replica(f'v{k + 1}', ell[k],
                                               w[k] + 1))),
              _E(aa[:k] + aa[k + 1:]) * _E([aa[k]]))),
    _standalone('K-standalone-p', rp.K_w_rep, False),
    _standalone('B-standalone-p', rp.B_w_rep, True),
    Lemma('additivity', 1,
          lambda w, ell, top: [()] if w[0] == 1 and set(ell) == {1} else [],
          _additivity, (4, 4)),
    Lemma('B-closed-form', 1, _every,
          lambda w, ell, aa: (aa.plain(rp.B_w_rep), rp.B_closed_form(
              w, _vars(len(w), 'v'), ell))),
    Lemma('K-closed-form', 1, _every,
          lambda w, ell, aa: (aa.plain(rp.K_w_rep), rp.K_closed_form_rep(
              w, _vars(len(w), 'v'), ell))),
    Lemma('K-inversion', 1, _every,
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


def _walk(rows):
    """Walk every (w, ell) once for the (lemma, top) pairs in rows, with
    one _Args per (w, ell). Returns each row's case count and seconds,
    and (name, w, ell, *case) of the first failing case, or None."""
    counts, secs = [0] * len(rows), [0.0] * len(rows)
    for n in range(1, max(top for _row, top in rows) + 1):
        for w in _am_words(n):
            for ell in iproduct((1, 2), repeat=n):
                aa = _Args(w, ell)
                for i, (row, top) in enumerate(rows):
                    if not row.lo <= n <= top:
                        continue
                    t0 = time.perf_counter()
                    for case in row.cases(w, ell, top):
                        counts[i] += 1
                        lhs, rhs = row.sides(w, ell, aa, *case)
                        if lhs != rhs:
                            return counts, secs, (row.name, w, ell) + case
                    secs[i] += time.perf_counter() - t0
    return counts, secs, None


def check_case(name, w, ell, *case):
    """Whether the named row of LEMMAS holds on one case; criterion 8
    prints this call for its first failing case."""
    row = {r.name: r for r in LEMMAS}[name]
    lhs, rhs = row.sides(w, ell, _Args(w, ell), *case)
    return lhs == rhs


def _reproduce(what, call):
    return False, (f'{what}; reproduce with python -c "from ncmotzkin '
                   f'import acceptance as a; print(a.{call})"')


def crit_replicas(scale):
    """The fixed examples, then every row of LEMMAS in one walk. The
    detail gives each row's case count and seconds (a plain value that
    rows share is timed in the first row that asks for it), or names the
    first failing case with a one-line reproducer."""
    t0 = time.perf_counter()
    err = _check_examples_replicas()
    if err:
        return _reproduce(f'examples fail: {err}',
                          '_check_examples_replicas()')
    t = time.perf_counter() - t0
    rows = [(row, row.tops[scale != 'full']) for row in LEMMAS]
    counts, secs, failed = _walk(rows)
    if failed:
        return _reproduce(
            f'{failed[0]} fails at {", ".join(map(repr, failed[1:]))}',
            f'check_case({", ".join(map(repr, failed))})')
    table = ', '.join(f'{row.name} {count} {sec:.2f}s' for (row, _top),
                      count, sec in zip(rows, counts, secs))
    return True, f'examples fixed {t:.2f}s; {sum(counts)} lemma cases: {table}'


# ---------------------------------------------------------------- 9

def crit_free_moments(scale):
    nmax = 6 if scale == 'full' else 5
    for n in range(1, nmax + 1):
        names = _vars(n)
        ell = tuple(1 + (i % 2) for i in range(n))
        total = ZERO
        for w in wd.enumerate_words(n):
            x = rp.replica_word(names, ell, w)
            total = total + rp.zeta_E(x)
        if total != cv.free_product_sym(list(zip(names, ell))):
            return False, f'replica sum != free oracle at n={n}'
    numax = 5 if scale == 'full' else 4
    for n in range(2, numax + 1):
        for k in range(n):
            args = [('x', 0)] * n
            args[k] = (cm.UNIT, 0)
            total = ZERO
            for w in wd.enumerate_words(n):
                total = total + cm.motzkin_k(w, args)
            if not total.is_zero():
                return False, f'unit argument sum nonzero at n={n}, k={k}'
    return True, f'free moments to n={nmax}, unit vanishing to n={numax}'


# ---------------------------------------------------------------- 10

def crit_convolution(scale):
    a = _vars(4)
    def B(label, *idx):
        return beta_sym(label, tuple(f'a{i}' for i in idx))

    def total_beta(w):
        out = ZERO
        for _pi, _ell, val in cv.boxplus_w_beta_terms(w, a[:len(w)]):
            out = out + val
        return out

    def b2m(p):
        return cm.expand_symbols(
            p, lambda s: cm.moment_to_boolean(s[1], s[2])
            if s[0] == 'beta' else Poly({(s,): 1}))

    half = B(1, 1, 2, 4) * B(2, 3) + B(1, 1) * B(1, 2, 4) * B(2, 3) \
        + B(2, 1) * B(1, 2, 4) * B(2, 3)
    if total_beta((1, 1, 2, 1)) != half + cm.mirror(half):
        return False, 'four-letter part (1121) mismatch'
    half = B(1, 1, 3, 4) * B(2, 2) + B(1, 1, 3) * B(2, 2) * B(1, 4) \
        + B(1, 1, 3) * B(2, 2) * B(2, 4)
    if total_beta((1, 2, 1, 1)) != half + cm.mirror(half):
        return False, 'four-letter part (1211) mismatch'
    half = B(1, 1, 4) * (B(2, 2, 3) + B(2, 2) * B(2, 3))
    if total_beta((1, 2, 2, 1)) != half + cm.mirror(half):
        return False, 'four-letter part (1221) mismatch'
    d = cv.delta_sym(('a1', 'a2', 'a3'))
    want = B(1, 2) * B(2, 1, 3) + B(2, 2) * B(1, 1, 3)
    if d != b2m(want):
        return False, 'three-letter difference mismatch'

    def k(word, idx, label):
        return cm.motzkin_k(word, [(f'a{i}', label) for i in idx])

    def lin(word, idx):
        return k(word, idx, 1) + k(word, idx, 2)

    resolved = lin((1, 2, 2, 1), (1, 2, 3, 4)) \
        + lin((1, 2, 1), (1, 2, 4)) * lin((2,), (3,)) \
        + lin((1, 2, 1), (1, 3, 4)) * lin((2,), (2,)) \
        + lin((1, 1), (1, 4)) * lin((2, 2), (2, 3)) \
        + lin((1, 1), (1, 4)) * lin((1,), (2,)) * lin((1,), (3,))
    if cv.boxplus_w_sym((1, 2, 2, 1), a) != b2m(resolved):
        return False, 'linearized resolution of the 1221 part mismatch'

    nmax = 5 if scale == 'full' else 4
    for n in range(1, nmax + 1):
        names = _vars(n)
        for w in wd.enumerate_words(n):
            r1 = cv.boxplus_w_sym(w, names, 'replica')
            r2 = cv.boxplus_w_sym(w, names, 'monotone')
            r3 = cv.boxplus_w_sym(w, names, 'nested')
            if not (r1 == r2 == r3):
                return False, f'route disagreement at {wd.format_word(w)}'
    tmax = 6 if scale == 'full' else 5
    for n in range(1, tmax + 1):
        names = _vars(n)
        total = cv.boxplus_total_sym(names)
        oracle = ZERO
        boracle = ZERO
        for ell in iproduct((1, 2), repeat=n):
            oracle = oracle + cv.free_product_sym(list(zip(names, ell)))
            boracle = boracle + cv.boolean_product_sym(
                list(zip(names, ell)))
        if total != oracle:
            return False, f'total != free oracle at n={n}'
        if cv.boxplus_w_sym((1,) * n, names) != boracle:
            return False, f'constant part != Boolean oracle at n={n}'
    return True, f'examples fixed; routes to n={nmax}, totals to n={tmax}'


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


def crit_syt(scale):
    for w, tab in FIG4_TABLEAUX.items():
        if wd.to_tableau(w) != tab:
            return False, f'tableau mismatch at {wd.format_word(w)}'
        if wd.from_tableau(tab) != w:
            return False, f'inverse mismatch at {wd.format_word(w)}'
    nmax = 8 if scale == 'full' else 6
    for n in range(1, nmax + 1):
        words = wd.enumerate_words(n)
        images = [wd.to_tableau(w) for w in words]
        if len({str(t) for t in images}) != len(words):
            return False, f'bijection not injective at n={n}'
        if len(words) != len(_all_tableaux(n - 1)):
            return False, f'|M_{n}| != tableau count'
        for w, t in zip(words, images):
            if wd.from_tableau(t) != w:
                return False, f'round trip fails at {wd.format_word(w)}'
    return True, f'nine table rows fixed; bijection to n={nmax}'


# ---------------------------------------------------------------- driver

CRITERIA = [
    (1, 'counting suite', crit_counting),
    (2, 'five-letter lattice reproduction', crit_fig1),
    (3, 'irreducible family reproduction', crit_fig3),
    (4, 'coarsening closure and join', crit_lattice),
    (5, 'cumulant transforms', crit_transforms),
    (6, 'homogeneous decomposition of free cumulants', crit_decomposition),
    (7, 'inversion and closed-form expansions', crit_expansions),
    (8, 'replica model suite', crit_replicas),
    (9, 'free moments and unit vanishing', crit_free_moments),
    (10, 'convolution decomposition', crit_convolution),
    (11, 'tableau bijection', crit_syt),
]


def run_criterion(num, scale='full'):
    for n, name, fn in CRITERIA:
        if n == num:
            t0 = time.perf_counter()
            ok, detail = fn(scale)
            return ok, detail, time.perf_counter() - t0
    raise ValueError(f'no criterion {num}')


def run(scale='full', out=print, jobs=1):
    """Run all criteria; returns True iff every one passes."""
    all_ok = True
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        # a fork pool starts all its workers at the first submit, and no
        # more than one per criterion can be busy
        workers = min(jobs, len(CRITERIA))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [(n, name, pool.submit(run_criterion, n, scale))
                       for n, name, _fn in CRITERIA]
            results = [(n, name) + f.result() for n, name, f in futures]
    else:
        results = []
        for n, name, _fn in CRITERIA:
            ok, detail, dt = run_criterion(n, scale)
            results.append((n, name, ok, detail, dt))
    for n, name, ok, detail, dt in results:
        all_ok = all_ok and ok
        status = 'PASS' if ok else 'FAIL'
        out(f'[{status}] criterion {n:2d} ({name}): {detail} '
            f'[{dt:.1f}s]')
    out('ALL PASS' if all_ok else 'FAILURES PRESENT')
    return all_ok
