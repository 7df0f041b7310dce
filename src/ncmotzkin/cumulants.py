"""Exact symbolic cumulant calculus.

Polynomials are linear combinations of monomials in formal symbols with
exact coefficients: `int` when integral, `Fraction` otherwise. A symbol
is a tuple (kind, label, args) with kind in {'m', 'beta', 'r'}, an
integer label (0 = unlabeled) and a tuple of variable-id strings. The
distinguished variable '1' is the algebra unit.

Inside a Poly each symbol is a small int, its id: the symbol is interned
once, in an append-only table that lives as long as the process, so a
monomial is a sorted tuple of ints and a product sorts and hashes ints
only. Ids depend on the order in which symbols were first met, so they
never leave the process: `symbol_of` gives the raw symbol of an id and
every reader of symbols goes through it, text and JSON output sort by
the raw symbols, and a Poly pickles through its raw terms. `Poly(terms)`
takes raw-symbol monomials. Renaming variables (`rename`) and swapping
the labels 1 and 2 (`mirror`) map ids to ids, each id once.

The table, and the id map `mirror` keeps, have no bound: a symbol is kept
after the last Poly that holds it is gone. The symbols a process meets
are those of the variable names it is given, so the table is small for
any fixed set of names (the CLI, `verify` and the benchmarks). A
long-lived process that asks for parts of ever new name tuples grows
with them.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from . import partitions as sp
from . import adapted as ad
from . import words as wd

UNIT = '1'
_UNIT_TERMS = {(): 1}

# the symbol table: id -> raw symbol, and raw symbol -> id
_SYMBOLS = []
_IDS = {}


def intern(sym):
    """The id of the raw symbol (kind, label, args), added to the table
    when it is new."""
    i = _IDS.get(sym)
    if i is None:
        i = _IDS[sym] = len(_SYMBOLS)
        _SYMBOLS.append(sym)
    return i


def symbol_of(i):
    """The raw symbol (kind, label, args) of a symbol id."""
    return _SYMBOLS[i]


def raw_terms(p):
    """The terms of p with each monomial a sorted tuple of raw symbols."""
    return {tuple(sorted([symbol_of(i) for i in mono])): c
            for mono, c in p.terms.items()}


class Poly:
    """Multivariate polynomial in commuting formal symbols. A coefficient
    is an `int` when it is integral and a `Fraction` otherwise."""

    __slots__ = ('terms',)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                if type(c) is not int:
                    c = Fraction(c)
                if c:
                    mono = tuple(sorted([intern(s) for s in mono]))
                    self.terms[mono] = self.terms.get(mono, 0) + c
            self.terms = {m: _num(c) for m, c in self.terms.items() if c}

    @classmethod
    def const(cls, c):
        return cls({(): c})

    @classmethod
    def symbol(cls, kind, label, args):
        return _poly({(intern((kind, label, tuple(args))),): 1})

    def __reduce__(self):
        # ids are private to the process: pickle the raw symbols
        return Poly, (raw_terms(self),)

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        out = dict(self.terms)
        for mono, c in other.terms.items():
            c += out.pop(mono, 0)
            if c:
                out[mono] = _num(c)
        return _poly(out)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        out = dict(self.terms)
        for mono, c in other.terms.items():
            c = out.pop(mono, 0) - c
            if c:
                out[mono] = _num(c)
        return _poly(out)

    def __neg__(self):
        return _poly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Poly):
            # a unit or zero operand decides the product; the operand is
            # shared, which is safe since a Poly is never mutated
            a, b = self.terms, other.terms
            if not a or b == _UNIT_TERMS:
                return self
            if not b or a == _UNIT_TERMS:
                return other
            out = {}
            for m1, c1 in a.items():
                for m2, c2 in b.items():
                    mono = tuple(sorted(m1 + m2)) if m1 and m2 else m1 or m2
                    out[mono] = out.get(mono, 0) + c1 * c2
            return _poly({m: _num(c) for m, c in out.items() if c})
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            return _poly({})
        return _poly({m: _num(c * other) for m, c in self.terms.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        return 'Poly(' + format_poly(self) + ')'


def _num(c):
    """An exact coefficient as an int when it is integral."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _poly(terms):
    """The Poly with these terms, taken as they are: sorted monomials to
    nonzero coefficients, each an int when integral."""
    p = object.__new__(Poly)
    p.terms = terms
    return p


ZERO = Poly()
ONE = Poly.const(1)


def format_symbol(sym):
    kind, label, args = sym
    tag = f'_{label}' if label else ''
    return f'{kind}{tag}({",".join(args)})'


def format_poly(p):
    if p.is_zero():
        return '0'
    parts = []
    for mono, c in sorted(raw_terms(p).items()):
        if not mono:
            parts.append(str(c))
            continue
        body = '*'.join(format_symbol(s) for s in mono)
        parts.append(body if c == 1 else f'{c}*{body}')
    return ' + '.join(parts).replace('+ -', '- ')


def format_belement(b):
    """Text of an element of the span of 1 and the projections p_j."""
    if b.is_zero():
        return '0'
    bits = []
    for j in sorted(b.comp):
        name = '1' if j == 0 else f'p{j}'
        bits.append(f'({format_poly(b.comp[j])})*{name}')
    return ' + '.join(bits)


def m_sym(label, args):
    """Moment symbol; unit letters are absorbed (m of all units is 1)."""
    args = tuple(a for a in args if a != UNIT)
    if not args:
        return ONE
    return Poly.symbol('m', label, args)


def beta_sym(label, args):
    """Boolean cumulant symbol with the unit rule: interior units are
    deleted, a boundary unit of a cumulant of arity >= 2 kills it, and
    the first-order cumulant of the unit is 1."""
    args = tuple(args)
    inner = tuple(a for a in args[1:-1] if a != UNIT)
    args = args[:1] + inner + args[-1:] if len(args) > 1 else args
    if len(args) == 1:
        return ONE if args[0] == UNIT else Poly.symbol('beta', label, args)
    if UNIT in (args[0], args[-1]):
        return ZERO
    return Poly.symbol('beta', label, args)


def r_sym(label, args):
    args = tuple(args)
    if len(args) == 1 and args[0] == UNIT:
        return ONE
    return Poly.symbol('r', label, args)


def _prod(polys):
    out = ONE
    for p in polys:
        out = out * p
    return out


@lru_cache(maxsize=None)
def moment_to_free(label, args):
    """Free cumulant r(args) expanded in moment symbols. In a noncrossing
    partition the other blocks partition the gaps of the block V of the
    first position freely, so m(1..n) = sum over V of r(V) times the
    moments of V's gaps, and r(1..n) is m(1..n) minus the terms with
    V != 1..n: 2^(n-1) terms instead of one per element of NC(n)."""
    if not args:
        raise ValueError('empty argument list')
    n = len(args)
    out = m_sym(label, args)
    for k in range(n - 1):
        for rest in combinations(range(1, n), k):
            v = (0,) + rest
            term = moment_to_free(label, tuple([args[i] for i in v]))
            for a, b in zip(v, rest + (n,)):
                if b > a + 1:
                    term = term * m_sym(label, args[a + 1:b])
            out = out - term
    return out


@lru_cache(maxsize=None)
def moment_to_boolean(label, args):
    """Boolean cumulant beta(args) expanded in moment symbols:
    beta(1..n) = m(1..n) - sum_{j<n} beta(1..j) m(j+1..n)."""
    if not args:
        raise ValueError('empty argument list')
    out = m_sym(label, args)
    for j in range(1, len(args)):
        out = out - moment_to_boolean(label, args[:j]) * m_sym(label, args[j:])
    return out


def free_to_moment(label, args):
    """Moment m(args) as a polynomial in free cumulant symbols."""
    return block_sum(r_sym, (label,) * len(args), args,
                     sp.noncrossing_partitions(len(args)))


def boolean_to_moment(label, args):
    """Moment m(args) as a polynomial in Boolean cumulant symbols."""
    return block_sum(beta_sym, (label,) * len(args), args,
                     sp.interval_partitions(len(args)))


def free_in_boolean(label, args):
    """r(args) as a signed sum of beta products over irreducible
    noncrossing partitions."""
    return block_sum(beta_sym, (label,) * len(args), args,
                     sp.irreducible_partitions(len(args)), signed=True)


def boolean_in_free(label, args):
    """beta(args) as a sum of r products over irreducible noncrossing
    partitions."""
    return block_sum(r_sym, (label,) * len(args), args,
                     sp.irreducible_partitions(len(args)))


def _sum(polys):
    """The sum of Polys, added up in one dict: a running Poly sum would
    copy its terms at every step."""
    out = {}
    for p in polys:
        for mono, c in p.terms.items():
            out[mono] = out.get(mono, 0) + c
    return _poly({m: _num(c) for m, c in out.items() if c})


def block_sum(kappa, labels, names, partitions, signed=False):
    """The sum over the partitions pi of the product over the blocks b of
    pi of kappa(label of b's first position, names restricted to b),
    times (-1)^(|pi|-1) when signed: the one shape of every rule that
    turns a family of partitions into a polynomial in cumulants. labels
    and names are indexed by position - 1."""
    def term(pi):
        out = ONE
        for b in pi:
            out = out * kappa(labels[b[0] - 1],
                              tuple([names[p - 1] for p in b]))
        return -out if signed and not len(pi) % 2 else out

    return _sum(map(term, partitions))


def expand_symbols(poly, rule):
    """Replace every symbol by rule(symbol) -> Poly and re-expand; rule
    takes the raw symbol (kind, label, args)."""
    out = ZERO
    for mono, c in poly.terms.items():
        out = out + c * _prod(rule(symbol_of(i)) for i in mono)
    return out


def map_symbols(p, ids, f):
    """The polynomial with each symbol id i replaced by ids[i], which
    f(i) computes when ids lacks it. The map must be injective on the
    symbols of p, so that no two monomials merge."""
    terms = {}
    for mono, c in p.terms.items():
        out = []
        for i in mono:
            j = ids.get(i)
            if j is None:
                j = ids[i] = f(i)
            out.append(j)
        out.sort()
        terms[tuple(out)] = c
    return _poly(terms)


_MIRRORED = {}


def _mirror_id(i):
    kind, label, args = symbol_of(i)
    return intern((kind, {1: 2, 2: 1}.get(label, label), args))


def rename(p, back):
    """p with each variable name a in every symbol's args replaced by
    back.get(a, a). back must be a bijection on the names of p, so that
    no two monomials merge; each symbol id is mapped once."""
    def renamed(i):
        kind, label, args = symbol_of(i)
        return intern((kind, label, tuple([back.get(a, a) for a in args])))

    return map_symbols(p, {}, renamed)


def mirror(p):
    """p with the labels 1 and 2 swapped in every symbol, other labels
    kept: the automorphism that exchanges the two marginals. The id map
    is kept for the life of the process."""
    return map_symbols(p, _MIRRORED, _mirror_id)


def transform(src, dst, label, args):
    """Order-n transform between moment ('m'), free ('r') and Boolean
    ('beta') coordinates, as a symbolic polynomial."""
    table = {
        ('m', 'r'): moment_to_free,
        ('m', 'beta'): moment_to_boolean,
        ('r', 'm'): free_to_moment,
        ('beta', 'm'): boolean_to_moment,
        ('beta', 'r'): free_in_boolean,
        ('r', 'beta'): boolean_in_free,
    }
    if (src, dst) not in table:
        raise ValueError(f'no transform {src} -> {dst}')
    if not args:
        raise ValueError('empty argument list')
    return table[(src, dst)](label, tuple(args))


def motzkin_k(w, args):
    """Scalar Motzkin cumulant k_w. The arguments are (variable, label)
    pairs; the variable '1' is the unit. Vanishes unless all labels
    coincide; otherwise it is the signed sum of Boolean cumulant products
    over the monotone irreducible partitions of w."""
    w = tuple(w)
    args = [(str(v), l) for v, l in args]
    if len(args) != len(w):
        raise ValueError('argument/word length mismatch')
    labels = tuple(l for _v, l in args)
    if len(set(labels)) != 1:
        return ZERO
    return block_sum(beta_sym, labels, tuple(v for v, _l in args),
                     ad.enumerate_adapted(w, 'monotone_irr'), signed=True)


def motzkin_k_terms(w):
    """Number of monotone irreducible partitions of w (the number of
    beta_pi terms of k_w before cancellation)."""
    return len(ad.enumerate_adapted(tuple(w), 'monotone_irr'))


def free_decomposition(n, args=None):
    """Map w -> k_w over all reduced words of length n; the values sum to
    the free cumulant r_n expanded in Boolean cumulants."""
    if args is None:
        args = [('x', 0)] * n
    return {w: motzkin_k(w, args) for w in wd.enumerate_words(n)}


def K_closed_form(w):
    """Signed expansion of the Motzkin cumulant K_w over the irreducible
    adapted partitions of w: list of (partition, sign, rendering)."""
    w = tuple(w)
    out = []
    for pi in ad.enumerate_adapted(w, 'irr'):
        sign = (-1) ** (len(pi) - 1)
        out.append((pi, sign, render_nested(pi, w)))
    return out


def render_nested(pi, w):
    """Render the nested cumulant of a partition from its nesting plan:
    each inner block's cumulant value attaches to the right of the parent
    argument immediately preceding the block."""
    w = tuple(w)

    def render(tree):
        sub = ''.join(str(w[p - 1]) for p, _kids in tree)
        parts = [f'a{p}' + ''.join(map(render, kids)) for p, kids in tree]
        return f'B_{sub}(' + ','.join(parts) + ')'

    return ''.join(map(render, sp.nesting_plan(pi)))


def refinement_coefficient(pi_prime, pi, w):
    """Coefficient of the nested B-term of pi in the B-expansion of the
    nested Motzkin cumulant K of pi_prime (both adapted to w): the
    product over blocks V of pi_prime of (-1)^(k_V - 1) where k_V is the
    number of pi-blocks inside V, provided each restriction of pi is an
    irreducible adapted partition of V's subword; otherwise 0."""
    pi_prime = sp.normalize(pi_prime)
    pi = sp.normalize(pi)
    w = tuple(w)
    if not sp.refines(pi, pi_prime):
        return 0
    coeff = 1
    for v in pi_prime:
        index = {p: i + 1 for i, p in enumerate(v)}
        inner = [tuple(index[p] for p in b) for b in pi if b[0] in index]
        if any(p not in index for b in pi if b[0] in index for p in b):
            return 0
        inner = sp.normalize(inner)
        if not (ad.is_adapted(inner, ad.block_subword(w, v))
                and sp.is_irreducible(inner)):
            return 0
        coeff *= (-1) ** (len(inner) - 1)
    return coeff


def B_inversion(w):
    """B_w as a signed sum of products of E-moments over the interval
    splits of w: list of (split, sign, rendering)."""
    w = tuple(w)
    out = []
    for pi in ad.interval_splits(w):
        sign = (-1) ** (len(pi) - 1)
        text = ''.join(
            'E(' + ''.join(f'a{p}' for p in b) + ')' for b in pi)
        out.append((pi, sign, text))
    return out
