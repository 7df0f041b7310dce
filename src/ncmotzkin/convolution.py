"""Truncated distributions and the homogeneous decomposition of the free
additive convolution.

A Distribution is a total moment table on words over a finite alphabet up
to a fixed order. The convolution part boxplus_w of a pair of
distributions is indexed by a reduced Motzkin word w and admits three
equivalent evaluations: the replica-sum definition, the sum over labeled
monotone partitions, and the nested-cumulant sum. Summing over all w of
length n yields the free convolution moment; the constant words alone
yield the Boolean convolution.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .cumulants import (UNIT, ZERO, ONE, moment_to_free, moment_to_boolean,
                        beta_sym, mirror, rename, symbol_of,
                        _restrict, _prod, _sum)
from . import adapted as ad
from . import partitions as sp
from . import replicas as rp
from . import words as wd


class Distribution:
    """Moment table on words over a finite alphabet, truncated at a fixed
    order; the empty word has moment 1.

    In JSON a moment key joins the word's variable names with '' when
    every name is one character, and with ',' otherwise. The name '1'
    is the algebra unit of the symbolic side, so no variable takes it."""

    def __init__(self, alphabet, order, moments):
        self.alphabet = tuple(alphabet)
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError('alphabet letters must be distinct')
        if any(not v or ',' in v for v in self.alphabet):
            raise ValueError('variable names must be nonempty and '
                             'contain no comma')
        if UNIT in self.alphabet:
            raise ValueError(f'variable name {UNIT!r} is reserved for the '
                             'unit')
        if order < 0:
            raise ValueError('order must be >= 0')
        self.order = order
        self.moments = {}
        for word, val in moments.items():
            word = self._word(word)
            self.moments[word] = Fraction(val)
        for n in range(1, order + 1):
            for word in _all_words(self.alphabet, n):
                if word not in self.moments:
                    raise ValueError(f'missing moment for {"".join(word)}')

    def _word(self, word):
        word = tuple(word)
        for v in word:
            if v not in self.alphabet:
                raise ValueError(f'unknown variable {v!r}')
        if len(word) > self.order:
            raise ValueError(
                f'word length {len(word)} exceeds order {self.order}')
        return word

    def moment(self, word):
        word = self._word(word)
        if not word:
            return Fraction(1)
        return self.moments[word]

    @classmethod
    def from_json(cls, data):
        sep = _key_sep(data['alphabet'])
        return cls(data['alphabet'], data['order'],
                   {tuple(k.split(sep)) if sep and k else tuple(k):
                    Fraction(v) for k, v in data['moments'].items()})

    def to_json(self):
        sep = _key_sep(self.alphabet)
        return {
            'alphabet': list(self.alphabet),
            'order': self.order,
            'moments': {sep.join(k): str(v)
                        for k, v in sorted(self.moments.items())},
        }


def _key_sep(alphabet):
    return '' if all(len(v) == 1 for v in alphabet) else ','


def _all_words(alphabet, n):
    if n == 0:
        return [()]
    return [w + (a,) for w in _all_words(alphabet, n - 1) for a in alphabet]


def univariate_distribution(moment_seq, var='x'):
    """Distribution of a single variable given its moment sequence
    (m_1, m_2, ...)."""
    order = len(moment_seq)
    return Distribution(
        (var,), order,
        {(var,) * (i + 1): m for i, m in enumerate(moment_seq)})


def evaluate(poly, mu1, mu2):
    """Substitute the moments of mu1 and mu2 for the label-1 and label-2
    moment symbols of a polynomial. A moment is looked up in the table;
    a word that is not there goes through Distribution.moment, which
    raises for unknown letters and words longer than the order.

    Each term is multiplied out in integers, numerator and denominator,
    and added over the running lcm of the denominators; one Fraction is
    built at the end."""
    mus = {1: mu1, 2: mu2}
    values = {}
    total, denom = 0, 1
    for mono, coeff in poly.terms.items():
        if type(coeff) is int:
            num, den = coeff, 1
        else:
            num, den = coeff.numerator, coeff.denominator
        for i in mono:
            value = values.get(i)
            if value is None:
                value = values[i] = _moment_value(symbol_of(i), mus)
            num *= value[0]
            den *= value[1]
        if den != denom:
            g = gcd(den, denom)
            total *= den // g
            num *= denom // g
            denom *= den // g
        total += num
    return Fraction(total, denom)


def _moment_value(sym, mus):
    """(numerator, denominator) of a moment symbol's value."""
    kind, label, args = sym
    if kind != 'm':
        raise ValueError(f'cannot evaluate symbol kind {kind!r}')
    mu = mus.get(label)
    if mu is None:
        raise ValueError(f'cannot evaluate a moment symbol with '
                         f'label {label!r}: labels are 1 and 2')
    moment = mu.moments.get(args)
    if moment is None:
        moment = mu.moment(args)
    return moment.numerator, moment.denominator


def _check_pair(mu1, mu2, word):
    """Both distributions share an alphabet that holds every letter of
    the word, and their order reaches its length."""
    if mu1.alphabet != mu2.alphabet:
        raise ValueError('distributions must share an alphabet')
    for v in word:
        if str(v) not in mu1.alphabet:
            raise ValueError(f'unknown variable {str(v)!r}')
    n = len(word)
    if n > mu1.order or n > mu2.order:
        raise ValueError(f'word length {n} exceeds distribution order')


def _product_sym(labeled_word, partitions, cumulant):
    word = [(str(v), l) for v, l in labeled_word]
    n = len(word)
    if n == 0:
        return ONE
    names = tuple(v for v, _l in word)
    labels = tuple(l for _v, l in word)
    out = ZERO
    for pi in partitions(n):
        if not all(len({labels[p - 1] for p in b}) == 1 for b in pi):
            continue
        out = out + _prod(cumulant(labels[b[0] - 1], _restrict(names, b))
                          for b in pi)
    return out


def free_product_sym(labeled_word):
    """Free product moment as a polynomial in the marginal moment symbols:
    sum over noncrossing partitions with label-constant blocks of products
    of marginal free cumulants."""
    return _product_sym(labeled_word, sp.noncrossing_partitions,
                        moment_to_free)


def boolean_product_sym(labeled_word):
    """Boolean product moment: sum over interval partitions with
    label-constant blocks of products of marginal Boolean cumulants."""
    return _product_sym(labeled_word, sp.interval_partitions,
                        moment_to_boolean)


def free_product_moment(mu1, mu2, labeled_word):
    """Moment of the free product functional on a word of labeled
    variables (label 1 from mu1, label 2 from mu2)."""
    _check_pair(mu1, mu2, [v for v, _l in labeled_word])
    return evaluate(free_product_sym(labeled_word), mu1, mu2)


def boolean_product_moment(mu1, mu2, labeled_word):
    _check_pair(mu1, mu2, [v for v, _l in labeled_word])
    return evaluate(boolean_product_sym(labeled_word), mu1, mu2)


def _labelings(n):
    out = []
    for mask in range(1 << n):
        out.append(tuple(2 if mask >> i & 1 else 1 for i in range(n)))
    return out


def boxplus_w_sym(w, variables, route='replica'):
    """Homogeneous convolution part indexed by w, as a polynomial in the
    marginal moment symbols. Routes: 'replica' sums zeta(E(.)) of replica
    words over all labelings; 'monotone' sums partitioned Boolean
    cumulants over labeled monotone partitions; 'nested' sums
    zeta(K_pi[...]) over adapted partitions and block-constant
    labelings. A nonempty w that is not a reduced Motzkin word raises
    ValueError before anything is built.

    Swapping the labels 1 and 2 maps the part to itself, and the replica
    and nested routes build only half of it: 'replica' sums the
    labelings whose first label is 1 and adds the mirror of that sum
    (cumulants.mirror); 'nested' evaluates each block's Motzkin cumulant
    at label 1 only and adds its mirror. 'monotone' builds both labels,
    so it stays an independent check of the other two.

    The part depends on w, the route and the pattern in which the
    variable names repeat, never on a distribution: it is built once per
    (w, pattern, route), renamed to the names, and shared per literal
    key; a Poly is never mutated."""
    return _named(_w_part, tuple(w), tuple(str(v) for v in variables),
                  route)


def _pattern(variables):
    """The names' first-occurrence pattern ('y', 'x', 'y') ->
    ('#1', '#2', '#1'), the unit name kept literal, and the map from the
    pattern's names back to the given ones."""
    back = {}
    canon = {}
    for v in variables:
        if v != UNIT and v not in canon:
            canon[v] = f'#{len(canon) + 1}'
            back[canon[v]] = v
    return tuple(canon.get(v, v) for v in variables), back


@lru_cache(maxsize=1024)
def _named(build, key, variables, route):
    """build(key, pattern, route) of the names' pattern, renamed to the
    names. Bounded: a convolve benchmark pass asks for 95 part keys and
    23 totals, criterion 10 for 59 keys in all."""
    pattern, back = _pattern(variables)
    out = build(key, pattern, route)
    return out if pattern == variables else rename(out, back)


@lru_cache(maxsize=512)
def _w_part(w, pattern, route):
    """boxplus_w_sym on a tuple word and a tuple of str names, which
    boxplus_w_sym gives as their first-occurrence pattern. Bounded: a
    convolve benchmark pass uses 74 keys, criterion 10 uses 73."""
    n = len(w)
    if len(pattern) != n:
        raise ValueError('word/monomial length mismatch')
    if n == 0:
        return ONE
    if not wd.is_reduced(w):
        raise ValueError(f'{w} is not a reduced Motzkin word')
    if route == 'replica':
        # a labeling with l_1 = 2 is the mirror of one with l_1 = 1
        half = _sum(rp.zeta_E(rp.replica_word(pattern, (1,) + ell, w))
                    for ell in _labelings(n - 1))
        return half + mirror(half)
    if route == 'monotone':
        return _monotone_run(w, pattern, None)
    if route == 'nested':
        return _nested_part(w, pattern)
    raise ValueError(f'unknown route {route!r}')


def _nested_part(w, names):
    """The nested route: the sum over the adapted partitions of w and
    their block-constant labelings of zeta of the nested Motzkin
    cumulant, summed run by run.

    K_w is multilinear and the values of the outer blocks multiply, so
    the sum over the fillings and labels of each gap moves inside the
    argument of the position just before the gap. run(a, b, h, depth,
    bridge) is that sum, as a BElement, over the partitions of a..b into
    sibling blocks, grown by the rules of adapted.enumerate_adapted's
    run for class 'all'; None when there is no such partition. A block
    is summed over its two labels: K of its label-1 arguments plus the
    mirror of that, since the label-2 arguments are the label-1 ones
    mirrored, a run being a sum over both labels and so its own mirror.
    Its atom at a position followed by a gap is the label-1 replica times
    the gap's run, embedded. The block's sum multiplies the run of the
    rest. K itself is Forests' recursion, memoized for the whole part on
    atom keys (position, key of the gap's run or None)."""
    atoms = {(p, None): (j, rp.replica(v, 1, j))
             for p, (v, j) in enumerate(zip(names, w), start=1)}
    forests = rp.Forests(atoms)

    def K(block):
        return forests.value(tuple([((p, g), ()) for p, g in block]))

    @lru_cache(maxsize=None)
    def run(a, b, h, depth, bridge):
        if w[a - 1] != h or depth > h or h < bridge:
            return None
        out = None

        def grow(block):
            # block: (position, key of the run in the gap after it or None)
            nonlocal out
            last = block[-1][0]
            x = w[last - 1]
            if x == h:
                rest = run(last + 1, b, h, depth, bridge) if last < b \
                    else rp.B_ONE
                if rest is not None:
                    k = K(block)
                    value = rest * (k + k.mirror())
                    out = value if out is None else out + value
            for q in range(last + 1, b + 1):
                y = w[q - 1]
                if y < h or abs(y - x) > 1:
                    continue
                if q == last + 1:
                    grow(block + ((q, None),))
                    continue
                gap = (last + 1, q - 1, w[last], depth + 1, max(x, y))
                fill = run(*gap)
                if fill is None:
                    continue
                if (last, gap) not in atoms:
                    atoms[last, gap] = (x, atoms[last, None][1]
                                        * fill.embed())
                grow(block[:-1] + ((last, gap), (q, None)))

        grow(((a, None),))
        return out

    return run(1, len(w), w[0], 1, 0).zeta()


@lru_cache(maxsize=1024)
def _monotone_run(w, names, label):
    """The monotone route, run by run: the sum of the products of Boolean
    cumulants over the labeled partitions of the letters w, with names,
    into sibling blocks of the letter h = w[0]. The part of a reduced
    Motzkin word w is its run at label None.

    A run of a reduced Motzkin word ends with h and has no letter below
    it. A block starts at the first position and steps to the next
    letter h; the letters it steps over are a gap, filled by a run at
    h + 1 whose label is the opposite of the block's. It may close where
    the next letter is h (or at the end), followed by the run on the
    rest. At top level (label None) each block picks its own label;
    below, every sibling takes the one opposite to its outer block's.
    This is the monotone case of adapted.enumerate_adapted's run.

    A run depends only on its letters, names and label, so every word
    and pattern that holds it shares it. Bounded: a convolve benchmark
    pass asks for about 115 distinct runs, the total of x^11 for 4,862.
    A bound of 4,096 saved little time on the totals at the length
    limits and cost about 20 MB more peak RSS."""
    h = w[0]
    n = len(w)
    labels = (1, 2) if label is None else (label,)
    # fills[i]: the product of the block's gaps when it takes labels[i]
    fills = [ONE] * len(labels)
    block = [1]
    out = ZERO
    while True:
        last = block[-1]
        if last == n or w[last] == h:
            rest = ONE if last == n else _monotone_run(w[last:], names[last:],
                                                       label)
            args = _restrict(names, block)
            out = out + rest * _sum(moment_to_boolean(l, args) * f
                                    for l, f in zip(labels, fills))
        if last == n:
            return out
        q = last + 1
        while w[q - 1] > h:
            q += 1
        if q > last + 1:
            fills = [f * _monotone_run(w[last:q - 1], names[last:q - 1], 3 - l)
                     for f, l in zip(fills, labels)]
        block.append(q)


@lru_cache(maxsize=128)
def _total(which, pattern, route):
    """The sum of the parts of a pattern over the reduced words of its
    length: all of them, or the non-constant ones for which='delta'."""
    n = len(pattern)
    return _sum(_w_part(w, pattern, route) for w in wd.enumerate_words(n)
                if which == 'all' or w != (1,) * n)


def boxplus_w_beta_terms(w, variables):
    """The monotone-partition formula for boxplus_w kept in Boolean
    cumulant symbols: list of (partition, labeling, product) terms."""
    w = tuple(w)
    variables = tuple(str(v) for v in variables)
    out = []
    for pi in ad.enumerate_adapted(w, 'monotone'):
        for ell in ad.labelings_of(pi)['L0']:
            val = _prod(beta_sym(ell[b[0] - 1], _restrict(variables, b))
                        for b in pi)
            out.append((pi, ell, val))
    return out


def boxplus_w(mu1, mu2, monomial, w, route='monotone'):
    """Value of the w-indexed convolution part on a monomial (a word over
    the common alphabet)."""
    _check_pair(mu1, mu2, monomial)
    return evaluate(boxplus_w_sym(w, monomial, route), mu1, mu2)


def boxplus_total_sym(variables, route='monotone'):
    variables = tuple(str(v) for v in variables)
    if not variables:
        return ONE
    return _named(_total, 'all', variables, route)


def boxplus_total(mu1, mu2, monomial, route='monotone'):
    """Free convolution moment: the sum of boxplus_w over all reduced
    words of the monomial's length."""
    _check_pair(mu1, mu2, monomial)
    return evaluate(boxplus_total_sym(tuple(monomial), route), mu1, mu2)


def uplus_total(mu1, mu2, monomial):
    """Boolean convolution moment: the boxplus_w parts of constant
    words."""
    _check_pair(mu1, mu2, monomial)
    monomial = tuple(monomial)
    if not monomial:
        return Fraction(1)
    return evaluate(boxplus_w_sym((1,) * len(monomial), monomial,
                                  'monotone'), mu1, mu2)


def delta_sym(variables):
    """Difference between the free and Boolean convolution moments: the
    boxplus_w parts of non-constant words."""
    variables = tuple(str(v) for v in variables)
    if not variables:
        return ZERO
    return _named(_total, 'delta', variables, 'monotone')


def delta(mu1, mu2, monomial):
    _check_pair(mu1, mu2, monomial)
    return evaluate(delta_sym(tuple(monomial)), mu1, mu2)


def decompose(mu1, mu2, monomial, route='monotone'):
    """Map w -> boxplus_w value over all reduced words of the monomial's
    length."""
    _check_pair(mu1, mu2, monomial)
    monomial = tuple(monomial)
    return {w: boxplus_w(mu1, mu2, monomial, w, route)
            for w in wd.enumerate_words(len(monomial))}
