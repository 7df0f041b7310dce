"""Set partitions of [n]: noncrossing, irreducible, interval classes,
nesting structure and the join in the noncrossing lattice.

A partition is stored canonically as a tuple of blocks, each block a
tuple of increasing 1-based elements, blocks ordered by their minima.
The nesting scan behind `is_noncrossing`, `nesting` and `join_nc` reads
a block's first element as its minimum and its last as its maximum, so
it needs increasing blocks: the canonical form `normalize` produces.
NC(n), NC_irr(n) and Int(n) are generated from their components.
"""

from functools import lru_cache


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
    return sum(len(b) for b in pi)


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
def _concatenations(n, component):
    """Sorted partitions of [n]: a component(j) on 1..j, then one of the
    same family shifted to j+1..n. Noncrossing partitions split so into
    irreducible components, interval partitions into single blocks."""
    if n == 0:
        return ((),)
    return tuple(sorted(
        first + tuple(tuple(x + j for x in b) for b in rest)
        for j in range(1, n + 1) for first in component(j)
        for rest in _concatenations(n - j, component)))


@lru_cache(maxsize=None)
def _irreducible(n):
    """NC_irr(n): each member of NC(n-1) with n joined to the block of 1,
    a bijection; sorted."""
    if n == 1:
        return (((1,),),)
    return tuple(sorted((pi[0] + (n,),) + pi[1:]
                        for pi in _concatenations(n - 1, _irreducible)))


def _one_block(n):
    return ((tuple(range(1, n + 1)),),)


def noncrossing_partitions(n):
    return list(_concatenations(_check_size(n), _irreducible))


def irreducible_partitions(n):
    return list(_irreducible(_check_size(n)))


def interval_partitions(n):
    return list(_concatenations(_check_size(n), _one_block))


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


def join_nc(pi, rho):
    """Least upper bound of two noncrossing partitions of [n] in NC(n):
    merge to the common coarsening, then merge crossing blocks until
    noncrossing."""
    n = ground_size(pi)
    if ground_size(rho) != n:
        raise ValueError('ground set mismatch')
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for p in (pi, rho):
        for b in p:
            for x in b[1:]:
                union(b[0], x)

    while True:
        groups = {}
        for x in range(1, n + 1):
            groups.setdefault(find(x), []).append(x)
        cur = normalize(groups.values())
        crossing = _scan(cur)[1]
        if crossing is None:
            return cur
        union(crossing[0][0], crossing[1][0])


def refines(pi, rho):
    """True iff every block of pi is contained in a block of rho."""
    where = {}
    for i, b in enumerate(rho):
        for x in b:
            where[x] = i
    return all(len({where[x] for x in b}) == 1 for b in pi)


def format_partition(pi):
    return '{' + ','.join('{' + ','.join(map(str, b)) + '}' for b in pi) + '}'
