"""Noncrossing partitions adapted to a Motzkin word.

The central objects: the lattice NC(w) of partitions adapted to w, its
irreducible part NC_irr(w), the monotone subfamilies M(w) and M_irr(w),
the least element 0_hat, coarsening moves generating the lattice, interval
splits Int(w), labeled variants, the depth-word bijection eta and the
poset over all pairs (partition, word).
"""

from bisect import bisect_left
from functools import lru_cache
from itertools import combinations, product
from operator import le

from . import partitions as sp
from . import words as wd


def block_subword(w, block):
    return tuple(w[p - 1] for p in block)


def _block_ok(w, block):
    v = block_subword(w, block)
    if v[0] != v[-1] or v[0] != min(v):
        return False
    return all(abs(a - b) <= 1 for a, b in zip(v, v[1:]))


def _adapted_nesting(pi, w):
    """The nesting map of pi if pi is adapted to w, else None."""
    pi = tuple(tuple(b) for b in pi)
    if sp.ground_size(pi) != len(w):
        raise ValueError('partition/word length mismatch')
    try:
        nest = sp.nesting(pi)
    except ValueError:
        return None
    if not all(_block_ok(w, b) for b in pi):
        return None
    letter = {}
    for v, (outer, depth) in nest.items():
        h = w[v[0] - 1]
        if depth > h:
            return None
        gap = None
        if outer is not None:
            # the gap of the nearest outer block holding v, bracketed by
            # the two letters of its bridge
            i = bisect_left(outer, v[0])
            gap = (outer, i)
            if h < wd.bridge_height((w[outer[i - 1] - 1], w[outer[i] - 1])):
                return None
        if letter.setdefault(gap, h) != h:
            return None
    return nest


def is_adapted(pi, w):
    """Adaptedness of a noncrossing partition to the word w: every block
    subword is a Motzkin word, depths are bounded by subword heights,
    subword heights dominate bridge heights, and neighboring blocks (in
    one gap of a common nearest outer block, or all at top level) have
    equal heights."""
    return _adapted_nesting(pi, tuple(w)) is not None


def is_monotone(pi, w):
    """Monotonically adapted: adapted, every block subword constant, and
    each block's depth equals its (constant) letter offset by the height:
    d(V) = h(v) - h(w) + 1."""
    w = tuple(w)
    nest = _adapted_nesting(pi, w)
    if nest is None:
        return False
    base = min(w)
    for v, (_o, depth) in nest.items():
        sub = block_subword(w, v)
        if len(set(sub)) != 1:
            return False
        if depth != sub[0] - base + 1:
            return False
    return True


def enumerate_adapted(w, cls='all'):
    """Sorted partitions of w of a class (all, irr, monotone,
    monotone_irr), generated block by block.

    The blocks under one outer block (or at top level) that lie in one
    of its gaps form a sibling run on an interval a..b, all of the
    letter at a: a block starts at a, grows by letters that keep its
    subword Motzkin, with each gap it leaves filled by a run one level
    deeper, and is followed by the run on the rest of a..b. Every
    condition of adaptedness is checked on the block that it concerns,
    so nothing is built and then rejected. Monotone blocks are constant
    at the height their depth fixes; the irr classes close the top-level
    block only at n.
    """
    w = tuple(w)
    if cls not in ('all', 'irr', 'monotone', 'monotone_irr'):
        raise ValueError(f'unknown class {cls!r}')
    n = sp._check_size(len(w))
    monotone, irr = cls.startswith('monotone'), cls.endswith('irr')
    base = min(w)

    @lru_cache(maxsize=None)
    def run(a, b, h, depth, bridge):
        """Partitions of a..b into sibling blocks at depth `depth`, all of
        letter h, lying in a gap whose bridge height is `bridge`."""
        if (w[a - 1] != h or depth > h or h < bridge
                or monotone and depth != h - base + 1):
            return ()
        out = []

        def grow(block, fills):
            # fills: for each gap so far, the runs that fill it
            last = block[-1]
            x = w[last - 1]
            if x == h and (last == b or not (irr and depth == 1)):
                rests = run(last + 1, b, h, depth, bridge) if last < b \
                    else ((),)
                out.extend((block,) + sum(inner, ()) + rest
                           for inner in product(*fills) for rest in rests)
            for q in range(last + 1, b + 1):
                y = w[q - 1]
                if y < h or abs(y - x) > 1 or monotone and y != h:
                    continue
                if q == last + 1:
                    grow(block + (q,), fills)
                    continue
                # the gap's blocks all take its first letter
                gap = run(last + 1, q - 1, w[last], depth + 1, max(x, y))
                if gap:
                    grow(block + (q,), fills + (gap,))

        grow((a,), ())
        return tuple(out)

    # run yields the blocks of each partition in order of their minima
    return sorted(run(1, n, w[0], 1, 0))


def zero_hat(w):
    """Least element of NC(w): within a run of the base letter, consecutive
    base positions join iff separated by higher letters; higher segments
    are handled recursively."""
    w = tuple(w)
    blocks = []

    def rec(positions):
        base = min(w[p - 1] for p in positions)
        bases = [p for p in positions if w[p - 1] == base]
        cur = [bases[0]]
        for prev, p in zip(bases, bases[1:]):
            gap = [q for q in positions if prev < q < p]
            if gap:
                cur.append(p)
                rec(gap)
            else:
                blocks.append(tuple(cur))
                cur = [p]
        blocks.append(tuple(cur))

    rec(list(range(1, len(w) + 1)))
    return sp.normalize(blocks)


def admissible_coarsenings(pi, w):
    """One-step coarsenings of an adapted partition that stay adapted:
    merging two blocks in one gap of a common nearest outer block, or
    two top-level blocks (juxtaposition; blocks lying between the pair
    become nested), or merging a block into its nearest outer
    (insertion). Two blocks in different gaps of their outer block would
    cross it once merged, so they are never paired."""
    pi = sp.normalize(pi)
    w = tuple(w)
    nest = sp.nesting(pi)
    gaps = {}
    for v, (outer, _d) in nest.items():
        key = None if outer is None else (outer, bisect_left(outer, v[0]))
        gaps.setdefault(key, []).append(v)
    candidates = [(u, v) for group in gaps.values()
                  for i, u in enumerate(group) for v in group[i + 1:]]
    candidates += [(v, outer) for v, (outer, _d) in nest.items()
                   if outer is not None]
    out = []
    seen = set()
    for u, v in candidates:
        merged = sp.normalize(
            [b for b in pi if b not in (u, v)] + [tuple(sorted(u + v))])
        if merged not in seen and is_adapted(merged, w):
            seen.add(merged)
            out.append(merged)
    return sorted(out)


def coarsening_closure(w):
    """Transitive closure of admissible coarsenings from zero_hat(w)."""
    w = tuple(w)
    start = zero_hat(w)
    seen = {start}
    stack = [start]
    while stack:
        pi = stack.pop()
        for nxt in admissible_coarsenings(pi, w):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return sorted(seen)


def join_adapted(pi, w, rho, w2):
    if tuple(w) != tuple(w2):
        raise ValueError('join requires a common word')
    joined = sp.join_nc(sp.normalize(pi), sp.normalize(rho))
    if not is_adapted(joined, w):
        raise ValueError('join left the adapted family')
    return joined


def interval_splits(w):
    """Interval partitions of [n] whose cuts fall where two consecutive
    letters both equal the height of w; every factor is then a Motzkin
    word of the same height."""
    w = tuple(w)
    n = len(w)
    h = wd.height(w)
    valid = [k for k in range(1, n) if w[k - 1] == h and w[k] == h]
    out = []
    for r in range(len(valid) + 1):
        for cuts in combinations(valid, r):
            blocks = []
            start = 1
            for k in cuts:
                blocks.append(tuple(range(start, k + 1)))
                start = k + 1
            blocks.append(tuple(range(start, n + 1)))
            out.append(tuple(blocks))
    return sorted(out)


def block_labels_constant(pi, labels):
    return all(len({labels[p - 1] for p in b}) == 1 for b in pi)


def chains_alternate(pi, labels):
    """Labels differ between every block and its nearest outer block."""
    nest = sp.nesting(pi)
    for v, (outer, _d) in nest.items():
        if outer is not None and labels[v[0] - 1] == labels[outer[0] - 1]:
            return False
    return True


def labeled_classes(w, labels):
    """NC(w, l): adapted partitions with label-constant blocks.
    M(w, l): additionally monotone with labels alternating along
    saturated nesting chains."""
    w = tuple(w)
    ell = tuple(labels)
    if len(ell) != len(w):
        raise ValueError('labeling length mismatch')
    nc = [p for p in enumerate_adapted(w, 'all')
          if block_labels_constant(p, ell)]
    mono = [p for p in enumerate_adapted(w, 'monotone')
            if block_labels_constant(p, ell) and chains_alternate(p, ell)]
    mono_irr = [p for p in mono if sp.is_irreducible(p)]
    return {'nc': nc, 'monotone': mono, 'monotone_irr': mono_irr}


def labelings_of(pi):
    """L(pi): the 2^|pi| block-constant labelings; L0(pi): the subset
    alternating along nesting chains, built from one nesting scan: the
    top-level blocks take labels freely, and every inner block the label
    opposite to its nearest outer block's."""
    pi = sp.normalize(pi)
    nest = sp.nesting(pi)
    tops = [v for v, (outer, _d) in nest.items() if outer is None]

    def labeling(label):
        # label: the blocks that choose freely; in minima order every
        # other block comes after its outer block and takes the opposite
        ell = [0] * sp.ground_size(pi)
        for v, (outer, _d) in nest.items():
            if v not in label:
                label[v] = 3 - label[outer]
            for p in v:
                ell[p - 1] = label[v]
        return tuple(ell)

    def labelings(blocks):
        return sorted(labeling(dict(zip(blocks, ls)))
                      for ls in product((1, 2), repeat=len(blocks)))

    return {'L': labelings(pi), 'L0': labelings(tops)}


def eta(pi0):
    """Depth-word bijection: an irreducible noncrossing partition of [n]
    maps to (w, pi) where w assigns to each position the depth of its
    block; pi = (pi0, w) is monotonically adapted and irreducible."""
    pi0 = sp.normalize(pi0)
    if not (sp.is_noncrossing(pi0) and sp.is_irreducible(pi0)):
        raise ValueError('eta requires an irreducible noncrossing partition')
    nest = sp.nesting(pi0)
    n = sp.ground_size(pi0)
    w = [0] * n
    for v, (_o, depth) in nest.items():
        for p in v:
            w[p - 1] = depth
    return tuple(w), pi0


def poset_ncn(n, irr=False):
    """Vertices (pi, w) over all reduced words w of length n, ordered by
    the product of reversed refinement on partitions and the letterwise
    order on words."""
    cls = 'irr' if irr else 'all'
    verts = []
    for w in wd.enumerate_words(n):
        for pi in enumerate_adapted(w, cls):
            verts.append((pi, w))
    return verts


def _covers(vertices, up):
    """Cover edges from the strict up-sets, given as int bitsets over
    vertex indices: b covers a when b lies in the up-set of a and in the
    up-set of no element of it. Edges come in order of a, then of b."""
    edges = []
    for a, above in zip(vertices, up):
        beyond = 0
        for c in sp._bits(above):
            beyond |= up[c]
        edges += [(a, vertices[b]) for b in sp._bits(above & ~beyond)]
    return edges


def hasse(vertices):
    """Cover edges of (partition, word) pairs, ordered by refinement of
    the partitions and the letterwise order of the words.

    A partition's pairs x < y in one block determine it, and pi refines
    rho exactly when the pairs of pi are pairs of rho. So the strict
    up-set of (pi, w), as an int bitset over vertex indices, is the AND,
    over the pairs of pi, of the bitsets of the vertices holding that
    pair, and of the bitset of the vertices whose word is letterwise
    >= w."""
    pairs = [[q for b in pi for q in combinations(b, 2)]
             for pi, _w in vertices]
    holding, by_word = {}, {}
    for i, ((_pi, w), ps) in enumerate(zip(vertices, pairs)):
        bit = 1 << i
        for q in ps:
            holding[q] = holding.get(q, 0) | bit
        by_word[w] = by_word.get(w, 0) | bit
    above = {w: sum(bits for u, bits in by_word.items() if all(map(le, w, u)))
             for w in by_word}
    up = []
    for i, ((_pi, w), ps) in enumerate(zip(vertices, pairs)):
        s = above[w] & ~(1 << i)
        for q in ps:
            s &= holding[q]
        up.append(s)
    return _covers(vertices, up)


def hasse_adapted(w, cls='all'):
    """Cover edges of NC(w) (refinement order at fixed word): `hasse` on
    the vertices of one word."""
    w = tuple(w)
    verts = [(pi, w) for pi in enumerate_adapted(w, cls)]
    return [(a, b) for (a, _w), (b, _u) in hasse(verts)]
