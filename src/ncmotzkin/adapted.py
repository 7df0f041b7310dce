"""Noncrossing partitions adapted to a Motzkin word.

The central objects: the lattice NC(w) of partitions adapted to w, its
irreducible part NC_irr(w), the monotone subfamilies M(w) and M_irr(w),
the least element 0_hat, coarsening moves generating the lattice, interval
splits Int(w), labeled variants, the depth-word bijection eta and the
poset over all pairs (partition, word).
"""

from functools import lru_cache
from itertools import combinations, product
from operator import le

from . import partitions as sp
from . import words as wd


def block_subword(w, block):
    return tuple(w[p - 1] for p in block)


def _adapted(pi, w, monotone):
    """Whether pi is adapted to w, or monotonically adapted, by the mask
    scan _adapted_masks; raises ValueError unless pi's blocks, in any
    order, partition 1..len(w)."""
    n = len(w)
    if sp.ground_size(pi) != n:
        raise ValueError('partition/word length mismatch')
    return _adapted_masks(sp._masks(pi, n), w, monotone)


def _adapted_masks(masks, w, monotone):
    """Whether the partition of 1..len(w) held as int masks (bit x for
    element x, in any order) is adapted to w, or monotonically adapted,
    by one left-to-right scan over the positions of w.

    The stack holds the blocks opened and not yet closed, above an entry
    for the top level. Each entry is [the block's elements not yet
    reached as an int mask, its first letter, its last letter so far,
    the letter taken by the blocks in its current gap or 0]. A position
    either continues the block on top, or opens a block, or, as a later
    element of a block below the top, crosses the top. With `monotone`,
    a block's letters are constant and its depth is its letter offset by
    min(w) - 1."""
    opens = {m & -m: m for m in masks}
    base = min(w) if monotone else None
    stack = [[0, 0, 0, 0]]
    bit = 1
    for y in w:
        bit <<= 1
        top = stack[-1]
        rest, h, last, gap = top
        if rest & bit:
            # a step of at most 1, never below the first letter, nor
            # above the letter of the gap it closes: the gap's bridge
            if y < h or abs(y - last) > 1 or gap and y > gap \
                    or base is not None and y != h:
                return False
            rest ^= bit
            if rest:
                top[:] = rest, h, y, 0
            elif y != h:
                return False
            else:
                stack.pop()
            continue
        m = opens.get(bit)
        if m is None:
            return False  # a crossing
        if not gap:
            # the first block of a gap takes its letter, at least the
            # bridge's left letter; at top level that letter is 0
            if y < last:
                return False
            top[3] = y
        elif y != gap:
            return False
        depth = len(stack)
        if depth > y or base is not None and depth != y - base + 1:
            return False
        if m != bit:
            stack.append([m ^ bit, y, y, 0])
    return True


def is_adapted(pi, w):
    """Adaptedness of a noncrossing partition to the word w: every block
    subword is a Motzkin word, depths are bounded by subword heights,
    subword heights dominate bridge heights, and neighboring blocks (in
    one gap of a common nearest outer block, or all at top level) have
    equal heights. One scan checks all of these and that pi is
    noncrossing; blocks that do not partition 1..len(w) raise
    ValueError."""
    return _adapted(pi, tuple(w), False)


def is_monotone(pi, w):
    """Monotonically adapted: adapted, every block subword constant, and
    each block's depth equals its (constant) letter offset by the height:
    d(V) = h(v) - h(w) + 1. The scan of is_adapted, checking these as
    well."""
    return _adapted(pi, tuple(w), True)


@lru_cache(maxsize=1024)
def run_shapes(key):
    """The grammar of NC(w), written once for every consumer: the shapes
    of the partitions of one run into sibling blocks.

    A run is the stretch of letters filled by the blocks in one gap of
    an outer block, or by the top-level blocks; key = (letters, depth,
    bridge, base, irr). Its blocks lie at depth `depth` below a bridge
    of height `bridge` and take its first letter h. A block steps to
    letters >= h, by at most 1; each gap it leaves is a run one level
    deeper, below the higher of the letters around it. It closes at h,
    and the letters after it are a run again. With `base` the blocks
    are monotone, at the letter base + depth - 1; with `irr` the block
    closes only at the end.

    A shape is (block, gaps, rest): the first block as positions 1.. of
    the run, the key of the run in the gap after each of its positions
    but the last, or None, and the key of the rest, or None. Shapes come
    in lexicographic order of their first blocks: a block is listed
    before its extensions, which are pushed in reverse. Runs with no
    partition are never named. Keys hold letters, not positions, so
    every word and consumer holding a run shares its entry. Bounded,
    since the convolution totals of long words name many keys that no
    later call reads, and a larger bound cost memory and saved no time."""
    if not _opens(key):
        return ()
    letters, depth, bridge, base, irr = key
    h, n = letters[0], len(letters)

    def run(i, j, depth, bridge):
        # the key of the run on letters i+1..j, None if it has no partition
        sub = (letters[i:j], depth, bridge, base, False)
        return sub if _opens(sub) and run_shapes(sub) else None

    shapes = []
    stack = [((1,), ())]  # a recursive closure would leave a ref cycle
    while stack:
        block, gaps = stack.pop()
        last = block[-1]
        x = letters[last - 1]
        if x == h and (last == n or not irr and letters[last] == h):
            rest = run(last, n, depth, bridge) if last < n else None
            if last == n or rest:
                shapes.append((block, gaps, rest))
        grown = []
        for q in range(last + 1, n + 1):
            if q > last + 1 and letters[q - 2] < letters[last]:
                break  # so would every longer gap hold a letter below its own
            y = letters[q - 1]
            if y < h or abs(y - x) > 1 or base is not None and y != h:
                continue
            gap = run(last, q - 1, depth + 1, max(x, y)) if q > last + 1 \
                else None
            if q == last + 1 or gap:
                grown.append((block + (q,), gaps + (gap,)))
        stack += reversed(grown)
    return tuple(shapes)


def _opens(key):
    """Whether a run's first letter is at least its bridge and depth, and
    the letter its depth fixes for monotone blocks."""
    letters, depth, bridge, base, _irr = key
    h = letters[0]
    return bridge <= h >= depth and (base is None or depth == h - base + 1)


@lru_cache(maxsize=4096)
def _partitions(key, at):
    """The partitions of the run `key` whose positions follow `at`, as a
    tuple: the grammar run_shapes read as a list. For each shape, its
    first block with a partition of each gap's run and of the rest
    appended, so the blocks come in order of their minima. The first
    blocks come in lexicographic order, and one gap's blocks all end
    before the next gap's begin, so the list is sorted as it is built,
    as _nc's is. Keyed like run_shapes, plus the offset, so every word
    and class that holds a run at one offset shares its entry. Bounded,
    since an entry holds whole lists of partitions and a long word's
    top-level entry all of NC(w)."""
    out = []
    for block, gaps, rest in run_shapes(key):
        fills = [_partitions(g, at + p) for p, g in zip(block, gaps) if g]
        if rest:
            fills.append(_partitions(rest, at + block[-1]))
        out += sp._products((tuple([at + p for p in block]),), fills)
    return tuple(out)


def enumerate_adapted(w, cls='all'):
    """Sorted partitions of w of a class (all, irr, monotone,
    monotone_irr), as a fresh list: the run fold _partitions on the whole
    word, which builds them in sorted order."""
    w = tuple(w)
    if cls not in ('all', 'irr', 'monotone', 'monotone_irr'):
        raise ValueError(f'unknown class {cls!r}')
    sp._check_size(len(w))
    base = min(w) if cls.startswith('monotone') else None
    return list(_partitions((w, 1, 0, base, cls.endswith('irr')), 0))


def zero_hat(w):
    """Least element of NC(w): within a run of the base letter, consecutive
    base positions join iff separated by higher letters; higher segments
    are handled recursively. On some words that are not Motzkin words,
    such as 12 or 1231, this leaves positions out or gives blocks that
    are not adapted; those raise."""
    w = tuple(w)
    blocks = []

    def rec(lo, hi):
        # the positions lo..hi, always contiguous, so a gap is a range
        base = min(w[lo - 1:hi])
        bases = [p for p in range(lo, hi + 1) if w[p - 1] == base]
        cur = [bases[0]]
        for prev, p in zip(bases, bases[1:]):
            if p > prev + 1:
                cur.append(p)
                rec(prev + 1, p - 1)
            else:
                blocks.append(tuple(cur))
                cur = [p]
        blocks.append(tuple(cur))

    rec(1, len(w))
    if sum(map(len, blocks)) != len(w) or not is_adapted(blocks, w):
        raise ValueError(f'{w} is not a Motzkin word')
    return sp.normalize(blocks)


def admissible_coarsenings(pi, w):
    """One-step coarsenings of a partition adapted to w that stay adapted,
    sorted: every merge of two blocks, as masks, that the adaptedness
    scan _adapted_masks accepts. These are merges of two blocks in one
    gap of a common nearest outer block, or of two top-level blocks
    (juxtaposition; blocks lying between the pair become nested), or of
    a block into its nearest outer (insertion); any other pair crosses
    a block once merged. Raises ValueError unless pi is adapted to w."""
    w = tuple(w)
    n = len(w)
    if sp.ground_size(pi) != n:
        raise ValueError('partition/word length mismatch')
    masks = sp._masks(pi, n)
    if not _adapted_masks(masks, w, False):
        raise ValueError('coarsenings need a partition adapted to the word')
    out = []
    for i, j in combinations(range(len(masks)), 2):
        merged = masks[:i] + masks[i + 1:j] + masks[j + 1:]
        merged.append(masks[i] | masks[j])
        if _adapted_masks(merged, w, False):
            out.append(sp._canonical(merged))
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
    w = tuple(w)
    if w != tuple(w2):
        raise ValueError('join requires a common word')
    joined = sp._join(pi, rho)
    if sp.ground_size(pi) != len(w):
        raise ValueError('partition/word length mismatch')
    if not _adapted_masks(joined, w, False):
        raise ValueError('join left the adapted family')
    return sp._canonical(joined)


@lru_cache(maxsize=256)
def _cuts(w):
    """The cuts of Int(w) for the tuple word w: the c where w_c = w_(c+1) =
    height(w), then len(w). Cached, since replicas.B_w_rep reads them on
    every call, and the nested cumulants call it once per block. A bad
    word raises on every call; exceptions are not cached."""
    h = wd.height(w)
    return tuple([c for c in range(1, len(w)) if w[c - 1] == w[c] == h]
                 + [len(w)])


def interval_splits(w):
    """Int(w): the interval partitions of [n] cut at a subset of the cuts
    of w (_cuts), where two consecutive letters both equal the height of
    w; every factor is then a Motzkin word of the same height."""
    *cuts, n = _cuts(tuple(w))
    return sorted(tuple(tuple(range(a + 1, b + 1))
                        for a, b in zip((0,) + chosen, chosen + (n,)))
                  for r in range(len(cuts) + 1)
                  for chosen in combinations(cuts, r))


def block_labels_constant(pi, labels):
    return all(len({labels[p - 1] for p in b}) == 1 for b in pi)


def chains_alternate(pi, labels):
    """Labels differ between every block and its nearest outer block."""
    nest = sp.nesting(pi)
    for v, (outer, _d) in nest.items():
        if outer is not None and labels[v[0] - 1] == labels[outer[0] - 1]:
            return False
    return True


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
