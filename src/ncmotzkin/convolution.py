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
from itertools import product, zip_longest
from math import gcd

from .cumulants import (UNIT, ZERO, ONE, moment_to_free, moment_to_boolean,
                        beta_sym, block_sum, mirror, symbol_of, _prod,
                        _sum)
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
            for word in product(self.alphabet, repeat=n):
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
        """The distribution of a parsed distribution file. A file of
        another shape raises ValueError naming the field."""
        if type(data) is not dict:
            raise ValueError('a distribution file holds a JSON object')
        for field, kind, what in _FIELDS:
            if type(data.get(field)) is not kind:
                raise ValueError(f'field {field!r} must be {what}')
        alphabet = data['alphabet']
        if any(type(v) is not str for v in alphabet):
            raise ValueError("field 'alphabet' must be a list of strings")
        sep = _key_sep(alphabet)
        moments = {}
        for k, v in data['moments'].items():
            try:
                # a JSON float is binary, so not the rational it spells
                if type(v) not in (int, str):
                    raise TypeError
                moments[tuple(k.split(sep)) if sep and k else tuple(k)] = \
                    Fraction(v)
            except (TypeError, ValueError, ArithmeticError):
                raise ValueError(f"field 'moments': {k!r} is {v!r}, not an "
                                 'exact rational') from None
        return cls(alphabet, data['order'], moments)

    def to_json(self):
        sep = _key_sep(self.alphabet)
        return {
            'alphabet': list(self.alphabet),
            'order': self.order,
            'moments': {sep.join(k): str(v)
                        for k, v in sorted(self.moments.items())},
        }


_FIELDS = (('alphabet', list, 'a list of strings'),
           ('order', int, 'an integer'),
           ('moments', dict, 'an object'))


def _key_sep(alphabet):
    return '' if all(len(v) == 1 for v in alphabet) else ','


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
    names = tuple([str(v) for v, _l in labeled_word])
    labels = tuple([l for _v, l in labeled_word])
    if not names:
        return ONE
    return block_sum(cumulant, labels, names,
                     [pi for pi in partitions(len(names))
                      if ad.block_labels_constant(pi, labels)])


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
    at label 1 only and adds the mirror of each run's label-1 half.
    'monotone' builds both labels, so it stays an independent check of
    the other two.

    The part depends on w, the route and the names, never on a
    distribution: it is built once per (w, names, route) and shared; a
    Poly is never mutated."""
    return _w_part(tuple(w), tuple([str(v) for v in variables]), route)


@lru_cache(maxsize=512)
def _w_part(w, names, route):
    """boxplus_w_sym on a tuple word and a tuple of str names. Bounded,
    since the reduced words and names a process meets are few."""
    n = len(w)
    if len(names) != n:
        raise ValueError('word/monomial length mismatch')
    if n == 0:
        return ONE
    if not wd.is_reduced(w):
        raise ValueError(f'{w} is not a reduced Motzkin word')
    if route == 'replica':
        # a labeling with l_1 = 2 is the mirror of one with l_1 = 1
        half = _sum(rp.zeta_E(rp.replica_word(names, (1,) + ell, w))
                    for ell in product((1, 2), repeat=n - 1))
        return half + mirror(half)
    if route == 'monotone':
        return _monotone_run(w, names, None)
    if route == 'nested':
        return _nested_part(w, names)
    raise ValueError(f'unknown route {route!r}')


def _nested_part(w, names):
    """The nested route: the sum over the adapted partitions of w and
    their block-constant labelings of zeta of the nested Motzkin
    cumulant, the grammar adapted.run_shapes folded into BElements.

    K_w is multilinear and the values of the outer blocks multiply, so
    the sum over the fillings and labels of each gap moves inside the
    argument of the position just before it. run(key, at) is that sum
    over the partitions of the run `key` placed after position `at`. A
    block is summed over its two labels: K of its label-1 arguments plus
    the mirror of that, since the label-2 arguments are the label-1 ones
    mirrored, a run being a sum over both labels and so its own mirror.
    Its atom at a position followed by a gap is the label-1 replica
    times the gap's run, embedded. The run of the rest is its own mirror
    too, so a run is its label-1 half, each first block's K times the
    run of the rest, plus the mirror of that half. K itself is the
    inversion formula K_w = sum over NC_irr(w) of (-1)^(|pi|-1) B_pi,
    folded over the same grammar (replicas.Inversion) and memoized for
    the whole part on atom keys (position, key of the gap's run or
    None)."""
    atoms = {(p, None): (j, rp.replica(v, 1, j))
             for p, (v, j) in enumerate(zip(names, w), start=1)}
    inversion = rp.Inversion(atoms)

    @lru_cache(maxsize=None)
    def run(key, at):
        half = rp.B_ZERO
        for block, gaps, rest in ad.run_shapes(key):
            keys = tuple([(at + p, g) for p, g in zip_longest(block, gaps)])
            for p, g in keys:
                if (p, g) not in atoms:
                    atoms[p, g] = (w[p - 1], atoms[p, None][1]
                                   * run(g, p).embed())
            k = inversion.K(keys)
            half = half + (run(rest, at + block[-1]) * k if rest else k)
        return half + half.mirror()

    out = run((w, 1, 0, None, False), 0).zeta()
    del run  # run refers to itself: free its memo now, not at a collection
    return out


@lru_cache(maxsize=1024)
def _monotone_run(w, names, label):
    """The monotone route, run by run: the sum of the products of Boolean
    cumulants over the labeled monotone partitions of the letters w, with
    names, into sibling blocks of the letter w[0], the grammar
    adapted.run_shapes folded into Polys. The part of a reduced Motzkin
    word w is its run at label None. A block's gaps hold runs at the
    label opposite to its own, and the rest a run at the same label; at
    top level (label None) each block picks its own label.

    A run depends only on its letters, names and label, so every word
    and name tuple that holds it shares it. Bounded, since a larger bound
    saved little time on the totals at the length limits and cost peak
    memory."""
    labels = (1, 2) if label is None else (label,)
    parts = []
    for block, gaps, rest in ad.run_shapes((w, w[0], w[0] - 1, 1, False)):
        args = ad.block_subword(names, block)
        value = _sum(moment_to_boolean(l, args) * _prod(
            _monotone_run(g[0], names[p:p + len(g[0])], 3 - l)
            for p, g in zip(block, gaps) if g) for l in labels)
        if rest:
            value = _monotone_run(rest[0], names[block[-1]:], label) * value
        parts.append(value)
    return _sum(parts)


@lru_cache(maxsize=128)
def _total(names, route):
    """The sum of the parts of the names over the reduced words of their
    length."""
    return _sum(_w_part(w, names, route)
                for w in wd.enumerate_words(len(names)))


def boxplus_w_beta_terms(w, variables):
    """The monotone-partition formula for boxplus_w kept in Boolean
    cumulant symbols: list of (partition, labeling, product) terms."""
    w = tuple(w)
    variables = tuple(str(v) for v in variables)
    out = []
    for pi in ad.enumerate_adapted(w, 'monotone'):
        for ell in ad.labelings_of(pi)['L0']:
            out.append((pi, ell, block_sum(beta_sym, ell, variables, (pi,))))
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
    return _total(variables, route)


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
    return boxplus_total_sym(variables) - boxplus_w_sym(
        (1,) * len(variables), variables, 'monotone')


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
