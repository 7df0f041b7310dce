"""Set partitions of [n]: noncrossing, irreducible, interval classes,
nesting structure and plans, and the join in the noncrossing lattice.

A partition is stored canonically as a tuple of blocks, each block a
tuple of increasing 1-based elements, blocks ordered by their minima.
The nesting scan behind `is_noncrossing` and `nesting` reads a block's
first element as its minimum and its last as its maximum, so it needs
increasing blocks: the canonical form `normalize` produces. `join_nc`
holds blocks as int masks, bit x for element x, built by `_masks`,
which checks in the same pass, with normalize's messages, that the
blocks partition 1..n in any order; it joins them and returns the
canonical form. `adapted.is_adapted` checks its input with `_masks`
too. NC(n) is generated by its first block (`_nc`); Int(n) and
NC_irr(n) are read off the grammar of NC(w) (`adapted._partitions`), as
NC(1^n) and NC_irr(n^n).
"""

from bisect import bisect_left
from functools import lru_cache
from itertools import product


def normalize(blocks):
    bs = tuple(sorted(tuple(sorted(b)) for b in blocks))
    if not bs:
        raise ValueError('the empty partition has no ground set 1..n')
    seen = set()
    for b in bs:
        if not b:
            raise ValueError('empty block')
        for x in b:
            if x in seen:
                raise ValueError(f'element {x} appears twice')
            seen.add(x)
    n = max(seen)
    if seen != set(range(1, n + 1)):
        raise ValueError('blocks must cover 1..n')
    return bs


def ground_size(pi):
    return sum(map(len, pi))


def _check_size(n):
    if n < 1:
        raise ValueError('n must be >= 1')
    return n


def enumerate_all(n):
    """All set partitions of [n] via restricted growth strings."""
    _check_size(n)
    out = []

    def rec(assign, kmax):
        i = len(assign)
        if i == n:
            blocks = [[] for _ in range(kmax + 1)]
            for pos, c in enumerate(assign, start=1):
                blocks[c].append(pos)
            out.append(tuple(tuple(b) for b in blocks))
            return
        for c in range(kmax + 2):
            rec(assign + [c], max(kmax, c))

    rec([0], 0)
    return out


def _scan(pi):
    """Nesting tree of pi, or its first crossing, in one left-to-right
    pass with a stack of the blocks opened and not yet closed.

    When a block opens, the top of the stack is its nearest outer block
    and the stack height + 1 is its depth. A later element of a block
    that is not on top means that the top block opened after the block
    and closes after this element: the two cross. Returns (nest, None),
    nest mapping block -> (outer or None, depth) in order of minima, or
    (None, (top, block)) at the first crossing.
    """
    block_of = {x: b for b in pi for x in b}
    nest = {}
    stack = []
    for x, b in sorted(block_of.items()):
        if x == b[0]:
            nest[b] = (stack[-1] if stack else None, len(stack) + 1)
            stack.append(b)
        elif stack[-1] is not b:
            return None, (stack[-1], b)
        if x == b[-1]:
            stack.pop()
    return nest, None


def is_noncrossing(pi):
    """No a < b < c < d with a, c in one block and b, d in another."""
    return _scan(pi)[1] is None


def is_irreducible(pi):
    """1 and n lie in the same block (the unique covering block)."""
    n = ground_size(pi)
    for b in pi:
        if 1 in b:
            return n in b
    return False


def is_interval(pi):
    return all(b[-1] - b[0] + 1 == len(b) for b in pi)


@lru_cache(maxsize=None)
def _nc(lo, hi):
    """The noncrossing partitions of lo..hi, sorted; ((),) when the range
    is empty. The blocks of lo come in lexicographic order, and each is
    followed by every product of the partitions of its gaps and of the
    positions after it: blocks come in order of their minima, and one
    gap's blocks all end before the next gap's begin, so the list is
    sorted as it is built. Keyed on absolute positions, so NC(n) reuses
    every interval that NC(n-1) built; unbounded, since its keys are only
    the intervals of 1..n and its entries share their blocks. NC(n) keeps
    this fold rather than read NC(n^n) off the grammar of NC(w): the
    grammar's run keys carry depth and the letter n, so NC(n) and NC(n+1)
    would share no entry."""
    if lo > hi:
        return ((),)
    out = []
    stack = [(lo,)]  # a recursive closure would leave a ref cycle
    while stack:
        block = stack.pop()
        last = block[-1]
        fills = [_nc(a + 1, b - 1) for a, b in zip(block, block[1:])
                 if b > a + 1]
        fills.append(_nc(last + 1, hi))
        head = (block,)
        out += [head + sum(parts, ()) for parts in product(*fills)]
        stack += [block + (q,) for q in range(hi, last, -1)]
    return tuple(out)


def noncrossing_partitions(n):
    return list(_nc(1, _check_size(n)))


def irreducible_partitions(n):
    """NC_irr(n), sorted: NC_irr(w) for the word n^n, whose letter n
    bounds no block's depth."""
    from .adapted import _partitions
    return list(_partitions(((_check_size(n),) * n, 1, 0, None, True), 0))


def interval_partitions(n):
    """Int(n), sorted: NC(w) for the word 1^n, whose blocks nest nothing."""
    from .adapted import _partitions
    return list(_partitions(((1,) * _check_size(n), 1, 0, None, False), 0))


def enumerate_partitions(n, cls='all'):
    """Sorted partitions of [n] of a class: all, nc, nc_irr, interval."""
    families = {
        'all': lambda n: sorted(enumerate_all(n)),
        'nc': noncrossing_partitions,
        'nc_irr': irreducible_partitions,
        'interval': interval_partitions,
    }
    if cls not in families:
        raise ValueError(f'unknown class {cls!r}')
    return families[cls](n)


def nesting(pi):
    """Map block -> (nearest outer block or None, depth), in order of the
    blocks' minima.

    The nearest outer block of V is the block W with min(W) < min(V) and
    max(W) > max(V) whose span is smallest; covering blocks have depth 1.
    """
    nest, crossing = _scan(pi)
    if crossing is not None:
        raise ValueError('nesting requires a noncrossing partition')
    return nest


def siblings(nest):
    """Map each block of a nesting map to the blocks whose nearest outer
    block it is, and None to the covering blocks, in order of minima."""
    kids = {None: []}
    kids.update((b, []) for b in nest)
    for b, (outer, _d) in nest.items():
        kids[outer].append(b)
    return kids


@lru_cache(maxsize=1024)
def _plan(pi):
    """Nesting plan of a normalized noncrossing partition: a tree per
    outer block, in order; a tree is a tuple of (position, child trees),
    where an inner block hangs on the position of its outer block just
    before it, leftmost first."""
    children = siblings(nesting(pi))

    def tree(b):
        kids = [[] for _p in b]
        for c in children[b]:
            kids[bisect_left(b, c[0]) - 1].append(tree(c))
        return tuple(zip(b, map(tuple, kids)))

    return tuple(tree(b) for b in children[None])


def nesting_plan(pi):
    """The nesting plan of a noncrossing partition given as any blocks:
    the one rule by which nested cumulants are evaluated and rendered."""
    return _plan(normalize(pi))


def _masks(pi, n):
    """The blocks of pi as int masks, bit x for element x, checked in the
    same pass with normalize's messages: the caller has checked that pi
    holds n elements, so they partition 1..n when each lies in 1..n and
    none repeats. Blocks and their elements may come in any order."""
    if not pi:
        raise ValueError('the empty partition has no ground set 1..n')
    masks = []
    union = 0
    for b in pi:
        if not b:
            raise ValueError('empty block')
        m = 0
        for x in b:
            if not 0 < x <= n:
                raise ValueError('blocks must cover 1..n')
            bit = 1 << x
            if union & bit:
                raise ValueError(f'element {x} appears twice')
            union |= bit
            m |= bit
        masks.append(m)
    return masks


def _bits(m):
    """Indices of the set bits of m, lowest first."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def join_nc(pi, rho):
    """Least upper bound of two noncrossing partitions of [n] in NC(n),
    on blocks held as int masks: check both as masks (_masks), merge
    each block of rho with the blocks it meets, then merge crossing
    blocks until none cross. Returns the canonical form.

    The crossings are merged in one scan in order of minima, with a
    stack of the blocks whose span holds the current minimum. A block b
    lies in one gap of the block on top exactly when the top has no
    element inside b's span and closes after b; otherwise the two
    cross, and b takes in the top. For disjoint masks, the top closes
    before b opens when it is less than b's lowest bit, and after b
    when it is greater than b.
    """
    n = ground_size(pi)
    if ground_size(rho) != n:
        raise ValueError('ground set mismatch')
    blocks = _masks(pi, n)
    for m in _masks(rho, n):
        met = [c for c in blocks if c & m]
        if len(met) > 1:  # else m lies in one block already
            blocks = [c for c in blocks if not c & m]
            for c in met:
                m |= c
            blocks.append(m)
    blocks.sort(key=lambda m: m & -m)
    stack, done = [], []
    for b in blocks:
        low = b & -b
        while stack and stack[-1] < low:
            done.append(stack.pop())
        while stack and (stack[-1] & ((1 << b.bit_length()) - low)
                         or stack[-1] < b):
            b |= stack.pop()
            low = b & -b
        stack.append(b)
    return tuple(sorted(tuple(_bits(m)) for m in done + stack))


def refines(pi, rho):
    """True iff every block of pi is contained in a block of rho, both
    partitions of one ground set."""
    where = {}
    for i, b in enumerate(rho):
        for x in b:
            where[x] = i
    try:
        if ground_size(pi) == len(where):
            return all(len({where[x] for x in b}) == 1 for b in pi)
    except KeyError:  # an element of pi that rho lacks
        pass
    raise ValueError('ground set mismatch')


def format_partition(pi):
    return '{' + ','.join('{' + ','.join(map(str, b)) + '}' for b in pi) + '}'
