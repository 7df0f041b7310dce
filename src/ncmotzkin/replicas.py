"""Symbolic simulator of the orthogonal replica space.

Elements live in the tensor product of two infinite strings of Boolean
extensions, one per label. Each string assigns to every color (site) a
word in algebra letters and the projection letters P (the projection of
that string) and C (its complement 1 - P); sites beyond the explicit
ones are all equal to a tail letter, either 1 or P. The functionals Phi
and Psi_j evaluate to polynomials in formal moment symbols; the
conditional expectation E takes values in the span of 1 and the
orthogonal projections p_1, p_2, ...
"""

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct

from .cumulants import (Poly, ONE, ZERO, m_sym, mirror, moment_to_boolean,
                        format_belement)
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


@lru_cache(maxsize=4096)
def _mul_string(s, t):
    """Product of two canonical strings, site by site; None when a site
    is annihilated. Cached: the strings are hashable and few distinct
    pairs occur (2,867 over all of criterion 8)."""
    n = max(len(s[0]), len(t[0]))
    out = []
    for j in range(1, n + 1):
        site = _simp_site(_site(s, j) + _site(t, j))
        if site is None:
            return None
        out.append(site)
    return _canon_string(out, s[1] | t[1])


class Rep:
    """Finite linear combination of two-string tensor monomials with
    polynomial coefficients."""

    __slots__ = ('terms',)

    def __init__(self, terms=None):
        self.terms = _nonzero(terms or {})

    def __add__(self, other):
        if not isinstance(other, Rep):
            return NotImplemented
        return _rep(_sum_maps(self.terms, other.terms))

    def __sub__(self, other):
        if not isinstance(other, Rep):
            return NotImplemented
        return _rep(_diff_maps(self.terms, other.terms))

    def __mul__(self, other):
        if not isinstance(other, Rep):
            return _rep(_scaled(self.terms, other))
        a, b = self.terms, other.terms
        if not a or not b:
            return REP_ZERO
        if len(a) == 1 and len(b) == 1:
            # one monomial times one: 44% of the products in criterion 8
            ((a1, a2), c), = a.items()
            ((b1, b2), d), = b.items()
            s1 = _mul_string(a1, b1)
            s2 = None if s1 is None else _mul_string(a2, b2)
            if s2 is None:
                return REP_ZERO
            return _rep({(s1, s2): c * d})
        out = {}
        for (a1, a2), c in a.items():
            for (b1, b2), d in b.items():
                s1 = _mul_string(a1, b1)
                if s1 is None:
                    continue
                s2 = _mul_string(a2, b2)
                if s2 is None:
                    continue
                key = (s1, s2)
                cd = c * d
                out[key] = out[key] + cd if key in out else cd
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


def _string_of(sites, tail):
    return _canon_string([_simp_site(s) for s in sites], tail)


def replica(var, label, j):
    """Orthogonal replica a(j) of a variable with the given label."""
    if label not in (1, 2) or j < 1:
        raise ValueError('label must be 1 or 2 and color >= 1')
    own = [()] * (j - 1) + [(('v', str(var)),)]
    other = [()] * (j - 2) + [('C',)] if j >= 2 else []
    s_own = _string_of(own, TAIL_ONE)
    s_other = _string_of(other, TAIL_PROJ)
    if label == 1:
        return Rep({(s_own, s_other): 1})
    return Rep({(s_other, s_own): 1})


def e_label(i, n):
    """The projection e_{i,n}: all ones on string i, the tail projection
    from color n on on the other string."""
    if i not in (1, 2) or n < 1:
        raise ValueError('bad label or index')
    trivial = ((), TAIL_ONE)
    proj = _string_of([()] * (n - 1), TAIL_PROJ)
    return Rep({(trivial, proj) if i == 1 else (proj, trivial): 1})


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


def _site_branches(tokens):
    """Expand every C into 1 (sign +) or P (sign -): list of
    (sign, simplified word); annihilated branches are dropped."""
    spots = [i for i, t in enumerate(tokens) if t == 'C']
    if not spots:
        return [(1, tokens)]
    out = []
    for choice in iproduct((0, 1), repeat=len(spots)):
        sign = 1
        word = list(tokens)
        for i, c in zip(spots, choice):
            if c:
                sign = -sign
                word[i] = 'P'
            else:
                word[i] = None
        site = _simp_site(t for t in word if t is not None)
        if site is not None:
            out.append((sign, site))
    return out


def _runs(tokens):
    """Maximal runs of algebra letters between projection letters."""
    runs = []
    cur = []
    for t in tokens:
        if t == 'P':
            if cur:
                runs.append(tuple(cur))
                cur = []
        else:
            cur.append(t[1])
    if cur:
        runs.append(tuple(cur))
    return runs


@lru_cache(maxsize=4096)
def _phi_site(tokens, label):
    """Phi of one site's word on the label's marginal. Cached like
    _mul_string: all of criterion 8 asks 6,251 times for 277 keys."""
    out = ZERO
    for sign, word in _site_branches(tokens):
        val = ONE
        for run in _runs(word):
            val = val * m_sym(label, run)
        out = out + sign * val
    return out


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
    for (s1, s2), coeff in x.terms.items():
        val = coeff
        for label, string in ((1, s1), (2, s2)):
            sites, _tail = string
            for j, tokens in enumerate(sites, start=1):
                f = _phi_hat_site if j <= cutoff else _phi_site
                val = val * f(tokens, label)
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
        if not isinstance(other, BElement):
            return NotImplemented
        return _belement(_sum_maps(self.comp, other.comp))

    def __sub__(self, other):
        if not isinstance(other, BElement):
            return NotImplemented
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


def _branch_strings(string):
    """All C-expansions of one string: list of (sign, branch string)."""
    sites, tail = string
    per_site = [_site_branches(t) for t in sites]
    out = []
    for combo in iproduct(*per_site):
        sign = 1
        branch = []
        for s, word in combo:
            sign *= s
            branch.append(word)
        out.append((sign, _canon_string(branch, tail)))
    return out


def _strip(string):
    """Split one projection-and-letter string into boundary projection
    flags and the interior core: returns (e colors, f colors, core)."""
    sites, tail = string
    eflags = set()
    fflags = set()
    core = []
    for j, tokens in enumerate(sites, start=1):
        if tokens == ('P',):
            eflags.add(j)
            fflags.add(j)
            core.append(())
            continue
        t = tokens
        if t and t[0] == 'P':
            eflags.add(j)
            t = t[1:]
        if t and t[-1] == 'P':
            fflags.add(j)
            t = t[:-1]
        core.append(t)
    if tail == TAIL_PROJ:
        eflags.add(len(sites) + 1)
        fflags.add(len(sites) + 1)
    return eflags, fflags, _canon_string(core, TAIL_ONE)


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


@lru_cache(maxsize=None)
def _expect_mono(key):
    """E of one two-string monomial: boundary projections of each tensor
    factor determine the output color, the interior is evaluated by phi,
    which on a two-string core is the product of its strings' values."""
    s1, s2 = key
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


@lru_cache(maxsize=4096)
def _string_branches(string, label):
    """The C-expansions of one string on the label's marginal: a tuple of
    (least boundary projection color or 0 for none, signed phi of the
    stripped core), without the branches whose phi is zero. Cached like
    _mul_string: all of criterion 8 asks 7,659 times for 2,135 keys."""
    out = []
    for sign, branch in _branch_strings(string):
        e, f, (sites, _tail) = _strip(branch)
        val = ONE if sign > 0 else -ONE
        for tokens in sites:
            val = val * _phi_site(tokens, label)
            if not val.terms:
                break
        else:
            out.append((min(e | f, default=0), val))
    return tuple(out)


def zeta_E(x):
    return expectation(x).zeta()


def rep_product(args):
    """The product of the arguments in order, REP_ONE for none."""
    args = iter(args)
    out = next(args, REP_ONE)
    for a in args:
        out = out * a
    return out


def replica_word(variables, labels, w):
    """The product a_1(j_1) ... a_n(j_n) of replicas."""
    return rep_product([replica(v, l, j)
                        for v, l, j in zip(variables, labels, w)])


def B_w_rep(w, args):
    """w-Boolean cumulant of replica-algebra arguments. E(1..n) is the
    sum over the interval splits of w of the products of B over their
    blocks; grouping the splits by their first block gives
    B(1..k) = E(1..k) - sum over cuts c < k of B(1..c) E(c+1..k), where
    a cut c has w_c = w_(c+1) = height(w)."""
    w = tuple(w)
    if len(args) != len(w):
        raise ValueError('argument/word length mismatch')
    ends = _cuts(w)
    B = {}
    for i, k in enumerate(ends):
        out = expectation(rep_product(args[:k]))
        for c in ends[:i]:
            out = out - B[c] * expectation(rep_product(args[c:k]))
        B[k] = out
    return B[len(w)]


@lru_cache(maxsize=256)
def _cuts(w):
    """The cuts c of the tuple word w, where w_c = w_(c+1) = height(w),
    then len(w). Cached: all of criterion 8 asks 83,841 times for 38
    words. A bad word raises on every call; exceptions are not cached."""
    h = wd.height(w)
    return tuple([c for c in range(1, len(w)) if w[c - 1] == w[c] == h]
                 + [len(w)])


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
    K_w by recursion over the irreducible adapted partitions of its
    word; otherwise it is B_w."""

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
        forest's arguments: the product over its outer blocks."""
        out = B_ONE
        for tree in plan:
            out = out * self.value(_graft(tree, forest))
        return out


def _graft(tree, forest):
    """The forest of one block of a plan: each of its positions keeps its
    node's children and gains the blocks nested just after it."""
    return tuple((forest[p - 1][0],
                  forest[p - 1][1] + tuple(_graft(c, forest) for c in kids))
                 for p, kids in tree)


@lru_cache(maxsize=1024)
def _plan(pi):
    """Nesting plan of a normalized noncrossing partition: a tree per
    outer block, in order; a tree is a tuple of (position, child trees),
    where an inner block hangs on the position of its outer block just
    before it, leftmost first."""
    children = sp.siblings(sp.nesting(pi))

    def tree(b):
        kids = [[] for _p in b]
        for c in children[b]:
            kids[bisect_left(b, c[0]) - 1].append(tree(c))
        return tuple(zip(b, map(tuple, kids)))

    return tuple(tree(b) for b in children[None])


def nesting_plan(pi):
    """The nesting plan of a noncrossing partition given as any blocks,
    for Forests.nested."""
    return _plan(sp.normalize(pi))


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
    return Forests(atoms, motzkin=False).nested(nesting_plan(pi), forest)


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
    w with more than one block. Cached: K_w asks for them at every level
    of its recursion, and all of criterion 8 uses 38 distinct words."""
    return tuple(_plan(pi) for pi in ad.enumerate_adapted(w, 'irr')
                 if len(pi) > 1)


def K_pi_rep(w, pi, args):
    """Nested Motzkin cumulant K_pi of replica arguments."""
    forest, atoms = _leaves(w, args)
    return Forests(atoms).nested(nesting_plan(pi), forest)


def K_closed_rep(w, args):
    """Theorem-level closed form: signed sum of nested B_pi over the
    irreducible adapted partitions of w."""
    forest, atoms = _leaves(w, args)
    nested_B = Forests(atoms, motzkin=False)
    out = B_ZERO
    for pi in ad.enumerate_adapted(w, 'irr'):
        term = nested_B.nested(_plan(pi), forest)
        out = out + (-1) ** (len(pi) - 1) * term
    return out


def beta_hat(label, variables):
    """Boolean cumulant of the label's marginal, expanded in moment
    symbols."""
    return moment_to_boolean(label, tuple(str(v) for v in variables))


def beta_hat_pi(pi, labels, variables):
    out = ONE
    for b in pi:
        out = out * beta_hat(labels[b[0] - 1],
                             [variables[p - 1] for p in b])
    return out


def B_closed_form(w, variables, labels):
    """Closed form for B_w on replicas: sum of partitioned Boolean
    cumulants over the labeled monotone irreducible partitions, times
    the projection of the word's height color."""
    w = tuple(w)
    classes = ad.labeled_classes(w, labels)
    val = ZERO
    for pi in classes['monotone_irr']:
        val = val + beta_hat_pi(pi, labels, variables)
    return BElement({wd.height(w): val})


def K_closed_form_rep(w, variables, labels):
    """Closed form for K_w on replicas: zero for mixed labels, otherwise
    the signed sum over monotone irreducible partitions."""
    w = tuple(w)
    if len(set(labels)) != 1:
        return B_ZERO
    val = ZERO
    for pi in ad.enumerate_adapted(w, 'monotone_irr'):
        val = val + (-1) ** (len(pi) - 1) * beta_hat_pi(
            pi, labels, variables)
    return BElement({wd.height(w): val})
