"""Seeded workloads for the ncmotzkin benchmark.

A workload is a list of items. An item is one public call into
ncmotzkin together with an exact check of its result against an
independent route or a known count. Each item kind is a `Kind`: three
one-line Python snippets over the public API (set-up, call and check).
The worker executes them in turn and times only the call, and their
text, prefixed by the item's inputs as literals, is the reproducer
printed when the item fails. The call binds `got` (the value whose
canonical text enters the digest) and the check binds `ok`.

Generation uses only the standard library, so the inputs of a seed never
depend on the code under test.
"""

import itertools
import random
from fractions import Fraction
from typing import NamedTuple

WORKLOADS = ('replica-lemmas', 'lattice-enum', 'convolve')

PRELUDE = ('import itertools, math; '
           'from ncmotzkin import words as wd, partitions as sp, '
           'adapted as ad, cumulants as cm, replicas as rp, '
           'convolution as cv')

_REPS = ("A = [rp.replica(f'v{i + 1}', l, j) "
         "for i, (l, j) in enumerate(zip(ell, w))]")
_NAMES = "[f'v{i + 1}' for i in range(len(w))]"
_DISTS = ('mu1 = cv.Distribution(alphabet, order, m1); '
          'mu2 = cv.Distribution(alphabet, order, m2)')
_LABELINGS = 'itertools.product((1, 2), repeat=len(mono))'
_FREE_ORACLE = ('sum(cv.free_product_moment(mu1, mu2, list(zip(mono, e))) '
                f'for e in {_LABELINGS})')
_BOOLEAN_ORACLE = ('sum(cv.boolean_product_moment(mu1, mu2, '
                   f'list(zip(mono, e))) for e in {_LABELINGS})')


class Kind(NamedTuple):
    """The three parts of an item: `setup` builds the call's inputs
    through the public API, `call` is the call under test and binds
    `got`, and `check` binds `ok`. Only `call` is timed."""
    setup: str
    call: str
    check: str


_X = _REPS + '; X = A[:k] + [A[k] * rp.p_proj(c)] + A[k + 1:]'
_U = _REPS + '; X = A[:k] + [rp.p_proj(c)] + A[k:]'

KINDS = {
    # replica-lemmas: the shapes of the criterion-8 sub-checks
    'B_closed_form': Kind(
        _REPS, 'got = rp.B_w_rep(w, A)',
        f'ok = got == rp.B_closed_form(w, {_NAMES}, ell)'),
    'K_closed_form': Kind(
        _REPS, 'got = rp.K_w_rep(w, A)',
        f'ok = got == rp.K_closed_form_rep(w, {_NAMES}, ell)'),
    'K_inversion': Kind(
        _REPS, 'got = rp.K_w_rep(w, A)', 'ok = got == rp.K_closed_rep(w, A)'),
    'B_projection_vanishes': Kind(
        _X, 'got = rp.B_w_rep(w, X)', 'ok = got.is_zero()'),
    'K_projection_vanishes': Kind(
        _X, 'got = rp.K_w_rep(w, X)', 'ok = got.is_zero()'),
    'B_deletion': Kind(
        _X, 'got = rp.B_w_rep(w, X)', 'ok = got == rp.B_w_rep(w, A)'),
    'K_deletion': Kind(
        _X, 'got = rp.K_w_rep(w, X)', 'ok = got == rp.K_w_rep(w, A)'),
    'B_standalone': Kind(
        _U, 'got = rp.B_w_rep(u, X)', 'ok = got.is_zero()'),
    'K_standalone': Kind(
        _U, 'got = rp.K_w_rep(u, X)', 'ok = got.is_zero()'),
    'factorization': Kind(
        _REPS + '; H = A[:k - 1] '
        '+ [A[k - 1] * rp.p_proj(c) if c else A[k - 1]]',
        'got = rp.expectation(rp.rep_product('
        'H + [rp.p_proj(w[k - 1])] + A[k:]))',
        'ok = got == rp.expectation(rp.rep_product(H)) '
        '* rp.expectation(rp.rep_product(A[k:]))'),
    'local_maximum': Kind(
        _REPS, 'got = rp.expectation(rp.rep_product(A))',
        'ok = got == rp.expectation(rp.rep_product('
        'A[:k] + [rp.p_proj(w[k])] + A[k + 1:])) '
        "* cm.m_sym(ell[k], (f'v{k + 1}',))"),
    'insertion_same': Kind(
        _REPS, 'got = rp.expectation(rp.rep_product('
        'A[:k + 1] + [rp.p_proj(w[k] + 1)] + A[k + 1:]))',
        'ok = got == rp.expectation(rp.rep_product('
        'A[:k + 1] + [rp.REP_ONE - rp.p_proj(w[k])] + A[k + 1:]))'),
    'insertion_step': Kind(
        _REPS, 'got = rp.expectation(rp.rep_product('
        'A[:k + 1] + [rp.p_proj(max(w[k], w[k + 1]))] + A[k + 1:]))',
        'ok = got == rp.expectation(rp.rep_product(A))'),
    'pair_deletion': Kind(
        _REPS + "; P = A[k] + rp.replica(f'v{k + 1}', ell[k], w[k] + 1)",
        'got = rp.expectation(rp.rep_product(A[:k] + [P] + A[k + 1:]))',
        'ok = got == rp.expectation(rp.rep_product(A[:k] + A[k + 1:])) '
        '* rp.expectation(A[k])'),
    # lattice-enum: enumeration checked against counts and other routes
    'nc_count': Kind(
        '', 'got = sp.noncrossing_partitions(n)',
        'ok = len(set(got)) == len(got) == math.comb(2 * n, n) // (n + 1)'),
    'adapted_all': Kind(
        '', "got = ad.enumerate_adapted(w, 'all')",
        'ok = got == ad.coarsening_closure(w)'),
    'adapted_irr': Kind(
        '', "got = ad.enumerate_adapted(w, 'irr')",
        'ok = got == [p for p in ad.coarsening_closure(w) '
        'if sp.is_irreducible(p)]'),
    'adapted_monotone_irr': Kind(
        '', "got = ad.enumerate_adapted(w, 'monotone_irr')",
        'ok = got == sorted(ad.eta(p)[1] '
        'for p in sp.irreducible_partitions(len(w)) if ad.eta(p)[0] == w)'),
    'irr_table': Kind(
        '', "got = len(ad.enumerate_adapted(w, 'irr'))", 'ok = got == want'),
    'zero_hat': Kind(
        '', 'got = ad.zero_hat(w)',
        "V = ad.enumerate_adapted(w, 'all'); "
        'ok = got in V and all(sp.refines(got, v) for v in V)'),
    'join': Kind(
        "V = ad.enumerate_adapted(w, 'all'); a = V[i % len(V)]; "
        'b = V[j % len(V)]',
        'got = ad.join_adapted(a, w, b, w)',
        'U = [v for v in V if sp.refines(a, v) and sp.refines(b, v)]; '
        'ok = got in U and all(sp.refines(got, v) for v in U)'),
    'hasse': Kind(
        '', 'got = sorted(ad.hasse_adapted(w))',
        "ok = got == sorted((p, q) for p in ad.enumerate_adapted(w, 'all') "
        'for q in ad.admissible_coarsenings(p, w))'),
    'words_count': Kind(
        '', 'got = wd.enumerate_words(n, h)',
        'ok = len(set(got)) == len(got) == want '
        'and all(wd.height(v) == h for v in got)'),
    'syt_round_trip': Kind(
        '', 'got = wd.to_tableau(w)',
        'ok = wd.from_tableau(got) == w and len(wd.check_tableau(got)) '
        '== len(got) and sum(map(len, got)) == len(w) - 1'),
    # convolve: the numeric path and its symbolic routes
    'boxplus_total': Kind(
        _DISTS, 'got = cv.boxplus_total(mu1, mu2, mono)',
        f'ok = got == {_FREE_ORACLE}'),
    'uplus_total': Kind(
        _DISTS, 'got = cv.uplus_total(mu1, mu2, mono)',
        f'ok = got == {_BOOLEAN_ORACLE}'),
    'decompose': Kind(
        _DISTS, 'got = cv.decompose(mu1, mu2, mono)',
        f'ok = sum(got.values()) == {_FREE_ORACLE} '
        f'and got[(1,) * len(mono)] == {_BOOLEAN_ORACLE}'),
    'routes': Kind(
        "V = tuple(f'a{i + 1}' for i in range(len(w)))",
        'got = cv.boxplus_w_sym(w, V, route)',
        'ok = got == cv.boxplus_w_sym(w, V, ref)'),
    'free_decomposition': Kind(
        '', 'got = cm.free_decomposition(len(args), [(v, 0) for v in args])',
        'ok = sum(got.values(), cm.ZERO) == cm.free_in_boolean(0, args)'),
    'transform_round_trip': Kind(
        '', 'got = cm.transform(src, dst, 0, args)',
        'ok = cm.expand_symbols(got, lambda s: '
        'cm.transform(dst, s[0], s[1], s[2])) '
        '== cm.Poly.symbol(dst, 0, args)'),
}


class Item(NamedTuple):
    id: int
    kind: str
    args: tuple  # (name, value) pairs of plain literals


def reproducer(item):
    """One shell line that re-runs the item through the public API and
    prints True when the check holds."""
    inputs = ''.join(f'{k} = {v!r}; ' for k, v in item.args)
    code = '; '.join(part for part in KINDS[item.kind] if part)
    return (f'PYTHONPATH=src python3 -c "{PRELUDE}; {inputs}'
            f'{code}; print(ok)"')


# ---------------------------------------------------------------- words

def _is_motzkin(w):
    return (all(abs(a - b) <= 1 for a, b in zip(w, w[1:]))
            and w[0] == w[-1] == min(w))


def motzkin_words(n, top=3):
    """Motzkin words of length n, of any height, over letters 1..top."""
    return [w for w in itertools.product(range(1, top + 1), repeat=n)
            if _is_motzkin(w)]


def reduced_words(n):
    """Motzkin words of length n starting and ending at 1."""
    out = []

    def extend(prefix):
        k = len(prefix)
        if k == n:
            if prefix[-1] == 1:
                out.append(tuple(prefix))
            return
        for nxt in (prefix[-1] - 1, prefix[-1], prefix[-1] + 1):
            if nxt >= 1 and nxt - 1 <= n - k - 1:
                extend(prefix + [nxt])

    extend([1])
    return out


def motzkin_number(k):
    m = [1]
    for i in range(1, k + 1):
        m.append(m[-1] + sum(m[a] * m[i - 2 - a] for a in range(i - 1)))
    return m[k]


# ------------------------------------------------------ replica-lemmas

def _lemma_items(w, ell, standalone):
    """The criterion-8 sub-check shapes for one (word, labeling) pair."""
    n = len(w)
    h = min(w)
    args = (('w', w), ('ell', ell))
    out = [('B_closed_form', args), ('K_closed_form', args),
           ('K_inversion', args)]
    for k in range(n - 1):
        at = args + (('k', k),)
        out.append(('B_projection_vanishes', at + (('c', h),)))
        out.append(('K_projection_vanishes', at + (('c', h),)))
        if w[k] == w[k + 1] == h and ell[k] != ell[k + 1]:
            out.append(('B_projection_vanishes', at + (('c', h + 1),)))
        if len(set(ell)) == 1 and w[k] == w[k + 1]:
            out.append(('B_deletion', at + (('c', w[k] + 1),)))
        lo, hi = sorted((w[k], w[k + 1]))
        if ell[k] != ell[k + 1] and hi == lo + 1:
            out.append(('B_deletion', at + (('c', hi),)))
        if len(set(ell)) == 1 and (w[k], w[k + 1]) in {
                (h, h), (h, h + 1), (h + 1, h)}:
            out.append(('K_deletion', at + (('c', h + 1),)))
    if standalone:
        for k in range(n + 1):
            for c in (1, 2, 3):
                u = w[:k] + (c,) + w[k:]
                if not _is_motzkin(u):
                    continue
                at = args + (('u', u), ('k', k), ('c', c))
                out.append(('K_standalone', at))
                if c == h:
                    out.append(('B_standalone', at))
    return out


def _expectation_items(w, ell):
    """Factorization, local-maximum and insertion lemmas for one pair."""
    n = len(w)
    h = min(w)
    args = (('w', w), ('ell', ell))
    out = []
    for k in range(1, n):
        if w[k - 1] == h:
            for c in (0, h, h + 1):
                out.append(('factorization', args + (('k', k), ('c', c))))
    if any(ell[i] == ell[i + 1] and w[i] != w[i + 1] for i in range(n - 1)):
        return out
    for k in range(n):
        if k > 0 and (ell[k - 1] == ell[k] or w[k - 1] > w[k]):
            continue
        if k < n - 1 and (ell[k] == ell[k + 1] or w[k] < w[k + 1]):
            continue
        flat = ((k == 0 or w[k - 1] == w[k])
                and (k == n - 1 or w[k] == w[k + 1]))
        if flat and any(m != k and ell[m] == ell[k] and w[m] < w[k]
                        for m in range(n)):
            continue
        out.append(('local_maximum', args + (('k', k),)))
    for k in range(n - 1):
        if ell[k] == ell[k + 1] and w[k] == w[k + 1]:
            out.append(('insertion_same', args + (('k', k),)))
        elif ell[k] != ell[k + 1] and abs(w[k] - w[k + 1]) == 1:
            out.append(('insertion_step', args + (('k', k),)))
    return out


def _labeling(rng, n, i):
    """A non-constant labeling of length n picked by the word's index i
    and flipped 1 <-> 2 by the seed. A flip costs the same, so every seed
    runs equally heavy items, and the p99 latency compares across seeds;
    constant labelings cost ten times more and are left to the
    exhaustive part."""
    classes = [ell for ell in itertools.product((1, 2), repeat=n)
               if ell[0] == 1 and 2 in ell]
    ell = classes[i % len(classes)]
    return ell if rng.random() < 0.5 else tuple(3 - x for x in ell)


def replica_lemmas(rng, tiny=False):
    """Every shape for every (word, labeling) pair to n=3 (n=2 when
    tiny); standalone projections at n=3, every cumulant shape at n=4
    and B_w against its closed form at n=5 for one labeling per word;
    the expectation lemmas for four seeded labelings per word at n=4;
    monotone pair deletion to n=5."""
    full = 2 if tiny else 3
    out = []
    for n in range(1, full + 1):
        for w in motzkin_words(n):
            for ell in itertools.product((1, 2), repeat=n):
                out += _lemma_items(w, ell, standalone=n < full)
                out += _expectation_items(w, ell)
    if tiny:
        return out
    for i, w in enumerate(motzkin_words(3)):
        out += [item for item in
                _lemma_items(w, _labeling(rng, 3, i), standalone=True)
                if item[0].endswith('standalone')]
    labelings = list(itertools.product((1, 2), repeat=4))
    for i, w in enumerate(motzkin_words(4)):
        out += _lemma_items(w, _labeling(rng, 4, i), standalone=False)
        for ell in rng.sample(labelings, 4):
            out += _expectation_items(w, ell)
    for i, w in enumerate(motzkin_words(5)):
        out.append(('B_closed_form',
                    (('w', w), ('ell', _labeling(rng, 5, i)))))
    for n in range(2, 6):
        for j in (1, 2):
            for ell in ((1, 2) * n)[:n], ((2, 1) * n)[:n]:
                w = (j,) * n
                for k in range(n):
                    out.append(('pair_deletion',
                                (('w', w), ('ell', ell), ('k', k))))
    return out


# --------------------------------------------------------- lattice-enum

IRR_TABLE = {
    (1, 1, 1, 1, 1): 1, (1, 1, 1, 2, 1): 2, (1, 1, 2, 1, 1): 2,
    (1, 1, 2, 2, 1): 5, (1, 2, 1, 1, 1): 2, (1, 2, 1, 2, 1): 4,
    (1, 2, 2, 1, 1): 5, (1, 2, 2, 2, 1): 13, (1, 2, 3, 2, 1): 4,
}


def lattice_enum(rng, tiny=False):
    """NC(n) to n=9; the adapted classes over every word to n=7 (all
    three to n=6, all and monotone_irr at n=7), two seeded words at n=8
    and one at n=9; zero_hat, joins and covers to n=6; word counts to n=9
    and the tableau bijection to n=8. The seeded words at n=8 and n=9 are
    heavier than any p99 item, and the items around the p99 latency are
    the same for every seed. Joins outnumber the tiny tableau items, so
    that the median item is a join; they take a fixed set of pairs per
    word, each in an order picked by the seed, so that the median
    compares across seeds."""
    top = 5 if tiny else 9
    lattice = 4 if tiny else 6
    classes = ('all', 'irr', 'monotone_irr')
    out = [('nc_count', (('n', n),)) for n in range(1, top + 1)]
    for n in range(1, lattice + 2):
        for w in reduced_words(n):
            out += [(f'adapted_{cls}', (('w', w),)) for cls in classes
                    if n <= lattice or cls != 'irr']
    if not tiny:
        out += [(f'adapted_{cls}', (('w', w),))
                for w in rng.sample(reduced_words(8), 2) for cls in classes]
        out.append(('adapted_monotone_irr',
                    (('w', rng.choice(reduced_words(9))),)))
        out += [('irr_table', (('w', w), ('want', c)))
                for w, c in IRR_TABLE.items()]
    for n in range(1, lattice + 1):
        for w in reduced_words(n):
            out.append(('zero_hat', (('w', w),)))
            out.append(('hasse', (('w', w),)))
            for t in range({5: 24, 6: 12}.get(n, 4)):
                i, j = t, 7 * t + 3
                if rng.random() < 0.5:
                    i, j = j, i
                out.append(('join', (('w', w), ('i', i), ('j', j))))
    for n in range(1, top + 1):
        for h in (1, 2, 3):
            out.append(('words_count', (('n', n), ('h', h),
                                        ('want', motzkin_number(n - 1)))))
    out += [('syt_round_trip', (('w', w),))
            for n in range(1, top) for w in reduced_words(n)]
    return out


# ------------------------------------------------------------- convolve

def _moments(rng, alphabet, order):
    return {word: str(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
            for n in range(1, order + 1)
            for word in itertools.product(alphabet, repeat=n)}


# each route is timed once and checked against the next, so all three agree
ROUTES = (('replica', 'monotone'), ('monotone', 'nested'),
          ('nested', 'replica'))


def convolve(rng, tiny=False):
    """decompose, boxplus_total and uplus_total on seeded rational
    distributions: two-letter monomials to length 2 and two of length 3
    per pair, one of length 4 on every fifth pair, univariate monomials
    to length 4, and one two-letter and one univariate monomial of
    length 5; each boxplus_w route checked against the next to n=4 and
    on 12221; transform round trips and the word decomposition of the
    free cumulant to n=6."""
    out = []
    short = [m for n in (1, 2) for m in itertools.product('xy', repeat=n)]
    for p in range(4 if tiny else 45):
        if p % 5 < 4:
            alphabet = ('x', 'y')
            monos = short + [tuple(rng.choice(alphabet) for _ in range(n))
                             for n in (3, 3, 4)[:3 if p % 5 == 0 else 2]]
        else:
            alphabet = ('x',)
            monos = [('x',) * n for n in range(1, 5)]
        if p < 2 and not tiny:
            monos.append(tuple(rng.choice(alphabet) for _ in range(5)))
        if tiny:
            monos = [m for m in monos if len(m) <= 3]
        order = max(map(len, monos))
        base = (('alphabet', alphabet), ('order', order),
                ('m1', _moments(rng, alphabet, order)),
                ('m2', _moments(rng, alphabet, order)))
        for mono in monos:
            args = base + (('mono', mono),)
            out += [(kind, args)
                    for kind in ('boxplus_total', 'uplus_total', 'decompose')]
    words = [w for n in range(1, 4 if tiny else 5) for w in reduced_words(n)]
    if not tiny:
        words.append((1, 2, 2, 2, 1))
    for w in words:
        for route, ref in ROUTES:
            out.append(('routes', (('w', w), ('route', route), ('ref', ref))))
    for n in range(1, (4 if tiny else 6) + 1):
        for args in (('x',) * n, tuple(f'a{i + 1}' for i in range(n))):
            if len(set(args)) > 1 and n > 5:
                continue
            out.append(('free_decomposition', (('args', args),)))
            for src, dst in (('m', 'r'), ('m', 'beta'), ('r', 'beta')):
                out.append(('transform_round_trip',
                            (('src', src), ('dst', dst), ('args', args))))
    return out


_GENERATORS = {'replica-lemmas': replica_lemmas, 'lattice-enum': lattice_enum,
               'convolve': convolve}


def build(workload, seed, tiny=False):
    """The items of a workload for a seed, in execution order. The order
    is fixed, so that the same items fill the package's caches in every
    run."""
    rng = random.Random(f'{workload}:{seed}')
    raw = _GENERATORS[workload](rng, tiny)
    return [Item(i, kind, args) for i, (kind, args) in enumerate(raw)]
