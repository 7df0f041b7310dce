"""Symbolic simulator of the orthogonal replica space.

Elements live in the tensor product of two infinite strings of Boolean
extensions, one per label. Each string assigns to every color (site) a
word in algebra letters and the projection letters P (the projection of
that string) and C (its complement 1 - P); sites beyond the explicit
ones are all equal to a tail letter, either 1 or P. The functionals Phi
and Psi_j evaluate to polynomials in formal moment symbols; the
conditional expectation E takes values in the span of 1 and the
orthogonal projections p_1, p_2, ...

A string (sites, tail) is canonical when its last explicit site is not
its tail's site. Each canonical string is interned once as a small int
id, in an append-only table, and each two-string monomial as its pair
of string ids, so a Rep maps monomial ids to Polys and the products and
expectations of monomials are cached lookups on ints. Ids depend on the
order in which strings are first met, so they never leave the process:
`string_of`, `monomial_of` and `raw_terms` read them back, a Rep pickles
through its raw terms, and `Rep(terms)` takes raw two-string monomials.
The tables have no bound, since the words the command line and
`verify` take meet few enough strings and monomials to keep them all.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct, zip_longest

from .cumulants import (Poly, ONE, ZERO, _intern, _prod, block_sum, m_sym,
                        mirror, moment_to_boolean, format_belement)
from . import adapted as ad
from . import partitions as sp
from . import words as wd

TAIL_ONE = 0
TAIL_PROJ = 1


def _simp_site(tokens):
    """Normalize projection adjacency; None means the word is zero."""
    out = []
    for t in tokens:
        if out and t in ('P', 'C') and out[-1] in ('P', 'C'):
            if out[-1] == t:
                continue
            return None
        out.append(t)
    return tuple(out)


def _tail_site(tail):
    return () if tail == TAIL_ONE else ('P',)


def _canon_string(sites, tail):
    sites = list(sites)
    while sites and sites[-1] == _tail_site(tail):
        sites.pop()
    return (tuple(sites), tail)


def _site(string, j):
    sites, tail = string
    return sites[j - 1] if j <= len(sites) else _tail_site(tail)


_STRINGS = []
_STRING_IDS = {}
_MONOS = []
_MONO_IDS = {}


def _string_id(sites, tail):
    """The id of the string (sites, tail), canonicalized, new or not."""
    return _intern(_canon_string(sites, tail), _STRINGS, _STRING_IDS)


def _mono_id(s1, s2):
    """The id of the monomial of the string ids s1, s2, new or not."""
    return _intern((s1, s2), _MONOS, _MONO_IDS)


def string_of(i):
    """The canonical (sites, tail) string of a string id."""
    return _STRINGS[i]


def monomial_of(k):
    """The raw monomial (string 1, string 2) of a monomial id."""
    s1, s2 = _MONOS[k]
    return _STRINGS[s1], _STRINGS[s2]


def raw_terms(x):
    """The terms of the Rep x keyed by raw two-string monomials."""
    return {monomial_of(k): c for k, c in x.terms.items()}


@lru_cache(maxsize=16384)
def _mul_string(i, j):
    """The id of the product of the strings of ids i and j, site by site;
    None when a site is annihilated. Cached on the id pair, since the
    misses of _mul_mono, the only callers, share strings."""
    s, t = _STRINGS[i], _STRINGS[j]
    n = max(len(s[0]), len(t[0]))
    out = []
    for k in range(1, n + 1):
        site = _simp_site(_site(s, k) + _site(t, k))
        if site is None:
            return None
        out.append(site)
    return _string_id(out, s[1] | t[1])


@lru_cache(maxsize=16384)
def _mul_mono(a, b):
    """The id of the product of the monomials of ids a and b, string by
    string; None when it vanishes. Cached on the id pair, since the
    products of Reps ask for the same few pairs many times over."""
    a1, a2 = _MONOS[a]
    b1, b2 = _MONOS[b]
    s1 = _mul_string(a1, b1)
    if s1 is None:
        return None
    s2 = _mul_string(a2, b2)
    if s2 is None:
        return None
    return _mono_id(s1, s2)


class Rep:
    """Finite linear combination of two-string tensor monomials with
    polynomial coefficients, keyed by monomial id."""

    __slots__ = ('terms',)

    def __init__(self, terms=None):
        # raw keys (string 1, string 2), each string (sites, tail); keys
        # equal once canonical are summed
        out = {}
        for (s1, s2), c in _nonzero(terms or {}).items():
            k = _mono_id(_string_id(*s1), _string_id(*s2))
            c = out.pop(k) + c if k in out else c
            if c.terms:
                out[k] = c
        self.terms = out

    def __reduce__(self):
        # ids are private to the process: pickle the raw monomials
        return Rep, (raw_terms(self),)

    def __add__(self, other):
        if not isinstance(other, Rep):
            return NotImplemented
        return _rep(_sum_maps(self.terms, other.terms))

    def __sub__(self, other):
        if not isinstance(other, Rep):
            return NotImplemented
        return _rep(_diff_maps(self.terms, other.terms))

    def __mul__(self, other):
        """The product. A zero operand gives REP_ZERO; one monomial times
        one, a common case, fills no dict. A coefficient product with the
        shared ONE on either side is the other coefficient itself, with
        no Poly product: safe, since a Poly is never mutated."""
        if not isinstance(other, Rep):
            return _rep(_scaled(self.terms, other))
        a, b = self.terms, other.terms
        if not a or not b:
            return REP_ZERO
        if len(a) == 1 and len(b) == 1:
            (k, c), = a.items()
            (l, d), = b.items()
            m = _mul_mono(k, l)
            if m is None:
                return REP_ZERO
            return _rep({m: d if c is ONE else c if d is ONE else c * d})
        out = {}
        for k, c in a.items():
            for l, d in b.items():
                m = _mul_mono(k, l)
                if m is None:
                    continue
                cd = d if c is ONE else c if d is ONE else c * d
                out[m] = out[m] + cd if m in out else cd
        return _rep({k: c for k, c in out.items() if c.terms})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other):
        if not isinstance(other, Rep):
            return NotImplemented
        return self.terms == other.terms

    def is_zero(self):
        return not self.terms


def _nonzero(coeffs):
    """A key -> coefficient map as key -> Poly, without zero entries."""
    out = {}
    for k, c in coeffs.items():
        if isinstance(c, (int, Fraction)):
            c = Poly.const(c)
        if c.terms:
            out[k] = c
    return out


def _sum_maps(a, b):
    """The sum of two key -> nonzero Poly maps, without zero entries."""
    out = dict(a)
    for k, c in b.items():
        if k in out:
            c = out.pop(k) + c
        if c.terms:
            out[k] = c
    return out


def _diff_maps(a, b):
    """The difference of two key -> nonzero Poly maps, without zero
    entries."""
    out = dict(a)
    for k, c in b.items():
        c = out.pop(k) - c if k in out else -c
        if c.terms:
            out[k] = c
    return out


def _scaled(coeffs, s):
    """A key -> Poly map times the number or Poly s, without zero
    entries."""
    out = {}
    for k, c in coeffs.items():
        c = c * s
        if c.terms:
            out[k] = c
    return out


def _rep(terms):
    """The Rep with these key -> nonzero Poly terms, taken as they are."""
    x = object.__new__(Rep)
    x.terms = terms
    return x


REP_ZERO = Rep()
REP_ONE = Rep({(((), TAIL_ONE), ((), TAIL_ONE)): 1})


def replica(var, label, j):
    """Orthogonal replica a(j) of a variable with the given label."""
    if label not in (1, 2) or j < 1:
        raise ValueError('label must be 1 or 2 and color >= 1')
    own = _string_id([()] * (j - 1) + [(('v', str(var)),)], TAIL_ONE)
    other = _string_id([()] * (j - 2) + [('C',)] if j >= 2 else [],
                       TAIL_PROJ)
    return _rep({_mono_id(own, other) if label == 1
                 else _mono_id(other, own): ONE})


def e_label(i, n):
    """The projection e_{i,n}: all ones on string i, the tail projection
    from color n on on the other string."""
    if i not in (1, 2) or n < 1:
        raise ValueError('bad label or index')
    trivial = _string_id((), TAIL_ONE)
    proj = _string_id([()] * (n - 1), TAIL_PROJ)
    return _rep({_mono_id(trivial, proj) if i == 1
                 else _mono_id(proj, trivial): ONE})


@lru_cache(maxsize=64)
def e_proj(n):
    """The projection e_n = e_{1,n} e_{2,n}, e_0 = 0. Cached, so every
    caller shares one Rep; Rep is never mutated."""
    if n == 0:
        return REP_ZERO
    return e_label(1, n) * e_label(2, n)


@lru_cache(maxsize=64)
def p_proj(n):
    """Orthogonal projection of color n: p_n = e_n - e_{n-1}. Cached
    like e_proj."""
    return e_proj(n) - e_proj(n - 1)


@lru_cache(maxsize=4096)
def _site_values(tokens, label):
    """Phi of one site's word on the label's marginal, split in two: the
    sum over its C-expansions (each C is 1 with sign + or P with sign -)
    that leave no P at either end of the word (inner), and over those
    that do (edge). An expanded word's phi is the product of the moments
    of its runs of letters between projections. Cached: the strings of
    all monomials are built from a few distinct site words."""
    inner = edge = ZERO
    for choice in iproduct((None, 'P'), repeat=tokens.count('C')):
        picks = iter(choice)
        word = [next(picks) if t == 'C' else t for t in tokens]
        word = [t for t in word if t]
        val = -ONE if choice.count('P') % 2 else ONE
        run = []
        for t in word + ['P']:
            if t != 'P':
                run.append(t[1])
            elif run:
                val = val * m_sym(label, tuple(run))
                run = []
        if word and 'P' in (word[0], word[-1]):
            edge = edge + val
        else:
            inner = inner + val
    return inner, edge


def _phi_hat_site(tokens, label):
    # vanishes on words containing the projection; C acts as 1
    if 'P' in tokens:
        return ZERO
    vars_ = tuple(t[1] for t in tokens if t != 'C')
    return m_sym(label, vars_) if vars_ else ONE


def phi(x, cutoff=0):
    """The product functional: moment evaluation site by site. With a
    cutoff j-1 > 0 the first j-1 sites are evaluated by the functional
    vanishing on projections, which yields Psi_j."""
    total = ZERO
    for k, coeff in x.terms.items():
        val = coeff
        for label, i in zip((1, 2), _MONOS[k]):
            sites, _tail = _STRINGS[i]
            for j, tokens in enumerate(sites, start=1):
                val = val * (_phi_hat_site(tokens, label) if j <= cutoff
                             else sum(_site_values(tokens, label), ZERO))
                if val.is_zero():
                    break
            if val.is_zero():
                break
        total = total + val
    return total


def psi(j, x):
    """Psi_j; Psi_1 coincides with phi."""
    if j < 1:
        raise ValueError('color must be >= 1')
    return phi(x, cutoff=j - 1)


class BElement:
    """Element of the span of 1 and the projections p_j with polynomial
    coefficients; p_i p_j = delta_ij p_i."""

    __slots__ = ('comp',)

    def __init__(self, comp=None):
        self.comp = _nonzero(comp or {})

    def __add__(self, other):
        """The sum; with a zero operand it is the other operand itself,
        shared, which is safe since a BElement is never mutated."""
        if not isinstance(other, BElement):
            return NotImplemented
        if not other.comp:
            return self
        if not self.comp:
            return other
        return _belement(_sum_maps(self.comp, other.comp))

    def __sub__(self, other):
        """The difference; x - 0 is x itself, shared as in __add__."""
        if not isinstance(other, BElement):
            return NotImplemented
        if not other.comp:
            return self
        return _belement(_diff_maps(self.comp, other.comp))

    def __mul__(self, other):
        if not isinstance(other, BElement):
            return _belement(_scaled(self.comp, other))
        a, b = self.comp, other.comp
        if not a or not b:
            return B_ZERO
        # (c0 + cj p_j)(d0 + dj p_j) has p_j part c0 dj + cj d0 + cj dj;
        # only the components present are formed, so each color takes
        # one product: cj dj, cj (d0 + dj), (c0 + cj) dj, or
        # (c0 + cj)(d0 + dj) - c0 d0 when both units are there
        c0 = a.get(0)
        d0 = b.get(0)
        out = {}
        if c0 is not None and d0 is not None:
            c0d0 = out[0] = c0 * d0
        for j, cj in a.items():
            if not j:
                continue
            dj = b.get(j)
            if dj is None:
                if d0 is None:
                    continue
                v = cj * d0
            elif c0 is None:
                v = cj * dj if d0 is None else cj * (d0 + dj)
            elif d0 is None:
                v = (c0 + cj) * dj
            else:
                v = (c0 + cj) * (d0 + dj) - c0d0
            if v.terms:
                out[j] = v
        if c0 is not None:
            for j, dj in b.items():
                if j and j not in a:
                    out[j] = c0 * dj
        return _belement(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other):
        if not isinstance(other, BElement):
            return NotImplemented
        return self.comp == other.comp

    def is_zero(self):
        return not self.comp

    def zeta(self):
        """The functional with zeta(1) = 1, zeta(p_k) = delta_{k,1}."""
        return self.comp.get(0, ZERO) + self.comp.get(1, ZERO)

    def mirror(self):
        """The element with the labels 1 and 2 swapped in its
        coefficients (cumulants.mirror)."""
        return _belement({j: mirror(c) for j, c in self.comp.items()})

    def embed(self):
        """The element as a member of the replica algebra."""
        out = REP_ZERO
        for j, c in self.comp.items():
            base = REP_ONE if j == 0 else p_proj(j)
            out = out + base * c
        return out

    def __repr__(self):
        return format_belement(self) if self.comp else 'BElement(0)'


def _belement(comp):
    """The BElement with these color -> nonzero Poly components, taken as
    they are."""
    b = object.__new__(BElement)
    b.comp = comp
    return b


B_ZERO = BElement()
B_ONE = BElement({0: 1})


def expectation(x):
    """Conditional expectation onto the span of 1 and the p_j. E is
    linear, so it is the sum over the terms of x of the coefficient times
    the expectation of the term's monomial; those are cached for the life
    of the process, and a lone term with unit coefficient is its
    monomial's value itself."""
    terms = x.terms
    if len(terms) == 1:
        (key, coeff), = terms.items()
        if coeff.terms == ONE.terms:
            return _expect_mono(key)
    out = {}
    for key, coeff in terms.items():
        for j, c in _expect_mono(key).comp.items():
            c = c * coeff
            out[j] = out[j] + c if j in out else c
    return _belement({j: c for j, c in out.items() if c.terms})


@lru_cache(maxsize=4096)
def _expect_mono(k):
    """E of the two-string monomial of id k: the least color at which
    either string leaves a boundary projection sets the output color,
    and the values of the two strings multiply. Bounded, since the
    `replica` convolution route asks for each of its monomials once."""
    s1, s2 = _MONOS[k]
    tops = {}
    for top1, v1 in _string_branches(s1, 1):
        for top2, v2 in _string_branches(s2, 2):
            k = min(top1, top2) if top1 and top2 else top1 or top2
            v = v1 * v2
            tops[k] = tops[k] + v if k in tops else v
    # a value whose least boundary color is k > 0 lies on p_1, ..., p_k
    comp = {0: tops.pop(0, ZERO)}
    run = ZERO
    for k in range(max(tops, default=0), 0, -1):
        run = run + tops.get(k, ZERO)
        comp[k] = run
    return _belement({j: c for j, c in comp.items() if c.terms})


@lru_cache(maxsize=8192)
def _string_branches(i, label):
    """The string of id i on the label's marginal as a tuple of (j,
    value), one per least color j at which a C-expansion leaves a
    boundary projection, zero values left out. One fold over the sites:
    color j takes the inner parts of the sites before it, the edge part
    of site j and the whole phi of each later site; the product of all
    inner parts goes to the tail's color, len + 1 for a projection tail
    and 0 for the unit. Cached: one string occurs in many monomials."""
    sites, tail = _STRINGS[i]
    out = []
    free = ONE
    for j, tokens in enumerate(sites, start=1):
        inner, edge = _site_values(tokens, label)
        if out:
            whole = inner + edge
            out = [(k, v * whole) for k, v in out]
        if edge.terms and free.terms:
            out.append((j, free * edge))
        free = free * inner
    out.append((len(sites) + 1 if tail == TAIL_PROJ else 0, free))
    return tuple((k, v) for k, v in out if v.terms)


def zeta_E(x):
    return expectation(x).zeta()


def rep_product(args):
    """The product of the arguments in order, REP_ONE for none."""
    return _prod(args, REP_ONE)


def replica_word(variables, labels, w):
    """The product a_1(j_1) ... a_n(j_n) of replicas."""
    return rep_product([replica(v, l, j)
                        for v, l, j in zip(variables, labels, w)])


def B_w_rep(w, args):
    """w-Boolean cumulant of replica-algebra arguments. E(1..n) is the
    sum over the interval splits of w of the products of B over their
    blocks; grouping the splits by their first block gives
    B(1..k) = E(1..k) - sum over cuts c < k of B(1..c) E(c+1..k), where
    a cut c has w_c = w_(c+1) = height(w). A cut whose B(1..c) is zero
    adds nothing, so its product and expectation are never built, and
    B(1..k) may be a shared value such as E(1..k) itself: values are
    never mutated."""
    w = tuple(w)
    if len(args) != len(w):
        raise ValueError('argument/word length mismatch')
    ends = ad._cuts(w)
    B = {}
    for i, k in enumerate(ends):
        out = expectation(rep_product(args[:k]))
        for c in ends[:i]:
            if B[c].comp:
                out = out - B[c] * expectation(rep_product(args[c:k]))
        B[k] = out
    return B[len(w)]


class Forests:
    """Nested Boolean or Motzkin cumulants of arguments built from a
    fixed set of atoms, memoized for the life of the object.

    `atoms` maps an atom key to its (letter, Rep). A forest is a tuple of
    nodes and a node is (atom key, child forests): its argument is the
    atom times the embedded cumulant of each child forest in order, and
    the word of a forest is the letters of its atoms. The memo is keyed
    on these nested tuples of atom keys, never on Rep values, so two
    evaluations share a subforest exactly when they build the same
    argument from the same atoms. With motzkin=True a forest's value is
    K_w by the recursion that defines it, K_w = B_w minus K_pi summed
    over the irreducible adapted partitions pi of its word with more
    than one block; otherwise it is B_w. `nested` gives K_pi or B_pi of
    a plan, the product over its outer blocks."""

    def __init__(self, atoms, motzkin=True):
        self.atoms = atoms
        self.motzkin = motzkin
        self._args = {}
        self._values = {}

    def arg(self, node):
        atom, kids = node
        if not kids:
            return self.atoms[atom][1]
        x = self._args.get(node)
        if x is None:
            x = self.atoms[atom][1]
            for f in kids:
                x = x * self.value(f).embed()
            self._args[node] = x
        return x

    def value(self, forest):
        out = self._values.get(forest)
        if out is None:
            w = tuple([self.atoms[atom][0] for atom, _kids in forest])
            out = B_w_rep(w, [self.arg(node) for node in forest])
            if self.motzkin:
                for plan in _split_plans(w):
                    out = out - self.nested(plan, forest)
            self._values[forest] = out
        return out

    def nested(self, plan, forest):
        """The nested cumulant of a partition, given by its plan, on the
        forest's arguments: the product over its outer blocks. The
        product stops at its first zero factor, so the later blocks'
        values stay unbuilt until another plan asks for them; the zero
        returned may be a shared value, which is never mutated."""
        out = B_ONE
        for tree in plan:
            out = out * self.value(_graft(tree, forest))
            if not out.comp:
                break
        return out


class Inversion(Forests):
    """Motzkin cumulants of flat forests of atoms by the inversion formula
    K_w = sum over NC_irr(w) of (-1)^(|pi|-1) B_pi, the grammar
    adapted.run_shapes folded into BElements: one B_w_rep per distinct
    block and gap sums, no K recursion and no plan per partition.

    The sum of a run is that signed sum over the run's partitions, so
    K_w is the sum of the irreducible run of w. A shape splits a
    partition into its first block and partitions sigma of some gaps and
    of the rest, and (-1)^(|pi|-1) into one factor -(-1)^(|sigma|-1) per
    sigma. B_pi is multilinear, so each gap's partitions sum inside the
    argument of the position just before it: the atom times the gap's
    sum, embedded. A shape thus adds B of its first block times the sum
    of the rest, negated once per gap with a run and once for a rest.
    Sums are memoized on (run key, atom keys) and B values on forests of
    atoms, for the life of the object. An argument that carries a gap's
    sum is an atom of its own, keyed (atom key, run key, atom keys of
    the gap) and added to `atoms`."""

    def __init__(self, atoms):
        super().__init__(atoms, motzkin=False)
        self._sums = {}

    def K(self, keys):
        """K_w of the arguments of the atom keys `keys`, w their
        letters."""
        w = tuple([self.atoms[a][0] for a in keys])
        return self._sum((w, 1, 0, None, True), keys)

    def _sum(self, key, keys):
        """The sum over the partitions sigma of the run `key` on the atoms
        `keys` of (-1)^(|sigma|-1) times the nested B of sigma."""
        out = self._sums.get((key, keys))
        if out is None:
            atoms = self.atoms
            out = B_ZERO
            for block, gaps, rest in ad.run_shapes(key):
                plus = True
                forest = []
                for p, g in zip_longest(block, gaps):
                    atom = keys[p - 1]
                    if g:
                        plus = not plus
                        inner = keys[p:p + len(g[0])]
                        base, atom = atom, (atom, g, inner)
                        if atom not in atoms:
                            letter, x = atoms[base]
                            atoms[atom] = letter, \
                                x * self._sum(g, inner).embed()
                    forest.append((atom, ()))
                b = self.value(tuple(forest))
                if rest:
                    plus = not plus
                    b = b * self._sum(rest, keys[block[-1]:])
                out = out + b if plus else out - b
            self._sums[key, keys] = out
        return out


def _graft(tree, forest):
    """The forest of one block of a plan: each of its positions keeps its
    node's children and gains the blocks nested just after it."""
    return tuple((forest[p - 1][0],
                  forest[p - 1][1] + tuple(_graft(c, forest) for c in kids))
                 for p, kids in tree)


def _leaves(w, args):
    """The forest of the plain arguments, and its atoms."""
    w = tuple(w)
    if len(args) != len(w):
        raise ValueError('argument/word length mismatch')
    forest = tuple([(i, ()) for i in range(len(w))])
    return forest, dict(enumerate(zip(w, args)))


def B_pi_rep(w, pi, args):
    """Nested w-Boolean cumulant B_pi of replica arguments: each inner
    block's value multiplies the argument of its outer block just before
    the inner block, leftmost first."""
    forest, atoms = _leaves(w, args)
    return Forests(atoms, motzkin=False).nested(sp.nesting_plan(pi), forest)


def K_w_rep(w, args):
    """Motzkin cumulant of replica-algebra arguments, by recursion over
    the irreducible adapted partitions of w."""
    w = tuple(w)
    if not w or not _split_plans(w):
        # K_w = B_w: no memo to build
        return B_w_rep(w, args)
    forest, atoms = _leaves(w, args)
    return Forests(atoms).value(forest)


@lru_cache(maxsize=256)
def _split_plans(w):
    """The plans of the irreducible adapted partitions of the tuple word
    w with more than one block. Cached, since K_w asks for them at every
    level of its recursion, on few distinct words."""
    return tuple(sp._plan(pi) for pi in ad.enumerate_adapted(w, 'irr')
                 if len(pi) > 1)


def K_pi_rep(w, pi, args):
    """Nested Motzkin cumulant K_pi of replica arguments."""
    forest, atoms = _leaves(w, args)
    return Forests(atoms).nested(sp.nesting_plan(pi), forest)


def K_closed_rep(w, args):
    """Theorem-level closed form: the signed sum of nested B_pi over the
    irreducible adapted partitions of w, K_w = sum (-1)^(|pi|-1) B_pi,
    folded over the grammar of NC(w) by Inversion."""
    _forest, atoms = _leaves(w, args)
    sp._check_size(len(atoms))
    return Inversion(atoms).K(tuple(atoms))


def beta_hat(label, variables):
    """Boolean cumulant of the label's marginal, expanded in moment
    symbols."""
    return moment_to_boolean(label, tuple(str(v) for v in variables))


def beta_hat_pi(pi, labels, variables):
    return block_sum(moment_to_boolean, labels,
                     tuple([str(v) for v in variables]), (pi,))


def B_closed_form(w, variables, labels):
    """Closed form for B_w on replicas: sum of partitioned Boolean
    cumulants over the labeled monotone irreducible partitions (label
    constant on blocks, alternating along nesting chains), times the
    projection of the word's height color."""
    w = tuple(w)
    if len(labels) != len(w):
        raise ValueError('labeling length mismatch')
    val = block_sum(moment_to_boolean, labels,
                    tuple([str(v) for v in variables]),
                    [pi for pi in ad.enumerate_adapted(w, 'monotone_irr')
                     if ad.block_labels_constant(pi, labels)
                     and ad.chains_alternate(pi, labels)])
    return BElement({wd.height(w): val})


def K_closed_form_rep(w, variables, labels):
    """Closed form for K_w on replicas: zero for mixed labels, otherwise
    the signed sum over monotone irreducible partitions."""
    w = tuple(w)
    if len(set(labels)) != 1:
        return B_ZERO
    val = block_sum(moment_to_boolean, labels,
                    tuple([str(v) for v in variables]),
                    ad.enumerate_adapted(w, 'monotone_irr'), signed=True)
    return BElement({wd.height(w): val})
