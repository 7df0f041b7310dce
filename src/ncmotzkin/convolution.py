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

from .cumulants import (UNIT, ZERO, ONE, moment_to_free, moment_to_boolean,
                        beta_sym, _restrict, _prod, _sum)
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
    raises for unknown letters and words longer than the order."""
    mus = {1: mu1, 2: mu2}
    total = Fraction(0)
    for mono, coeff in poly.terms.items():
        val = coeff
        for kind, label, args in mono:
            if kind != 'm':
                raise ValueError(f'cannot evaluate symbol kind {kind!r}')
            mu = mus[label]
            moment = mu.moments.get(args)
            val *= mu.moment(args) if moment is None else moment
        total += val
    return total


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
    labelings.

    The part depends on w, the variable names and the route only, never
    on a distribution, so it is built once per (w, variables, route) and
    shared; a Poly is never mutated."""
    return _w_part(tuple(w), tuple(str(v) for v in variables), route)


@lru_cache(maxsize=512)
def _w_part(w, variables, route):
    """boxplus_w_sym on a tuple word and a tuple of str names. Bounded:
    a convolve benchmark pass uses 118 keys, criterion 10 uses 73."""
    n = len(w)
    if len(variables) != n:
        raise ValueError('word/monomial length mismatch')
    if n == 0:
        return ONE
    if route == 'replica':
        out = ZERO
        for ell in _labelings(n):
            x = rp.replica_word(variables, ell, w)
            out = out + rp.zeta_E(x)
        return out
    if route == 'monotone':
        out = ZERO
        for pi in ad.enumerate_adapted(w, 'monotone'):
            for ell in ad.labelings_of(pi)['L0']:
                out = out + rp.beta_hat_pi(pi, ell, variables)
        return out
    if route == 'nested':
        out = ZERO
        for pi in ad.enumerate_adapted(w, 'all'):
            for ell in ad.labelings_of(pi)['L']:
                args = [rp.replica(v, l, j)
                        for v, l, j in zip(variables, ell, w)]
                out = out + rp.K_pi_rep(w, pi, args).zeta()
        return out
    raise ValueError(f'unknown route {route!r}')


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
    w = tuple(w)
    monomial = tuple(monomial)
    if len(monomial) != len(w):
        raise ValueError('word/monomial length mismatch')
    if not wd.is_reduced(w) and w:
        raise ValueError(f'{w} is not a reduced Motzkin word')
    return evaluate(boxplus_w_sym(w, monomial, route), mu1, mu2)


def boxplus_total_sym(variables, route='monotone'):
    variables = tuple(variables)
    n = len(variables)
    if n == 0:
        return ONE
    return _sum(boxplus_w_sym(w, variables, route)
                for w in wd.enumerate_words(n))


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
    return evaluate(boxplus_w_sym((1,) * len(monomial), monomial), mu1, mu2)


def delta_sym(variables):
    """Difference between the free and Boolean convolution moments: the
    boxplus_w parts of non-constant words."""
    variables = tuple(variables)
    n = len(variables)
    if n == 0:
        return ZERO
    return _sum(boxplus_w_sym(w, variables, 'monotone')
                for w in wd.enumerate_words(n) if w != (1,) * n)


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
