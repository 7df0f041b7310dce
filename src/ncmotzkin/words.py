"""Motzkin words and the bijection with standard Young tableaux.

A Motzkin word is stored as a tuple of positive integers (the heights of
the visited lattice points, 1-indexed positions). Consecutive letters
differ by at most 1. A word of height j starts and ends at j and never
goes below j; a reduced word has height 1.
"""

from functools import lru_cache
from itertools import accumulate
from operator import sub


def check_word(letters):
    """Validate a letter sequence and return it as a tuple.

    Raises ValueError on empty input, letters that are not positive
    ints (bools included) or steps outside {-1, 0, +1}.
    """
    w = tuple(letters)
    if not w:
        raise ValueError('empty word')
    for x in w:
        if type(x) is not int or x < 1:
            raise ValueError(f'letters must be positive integers, got {x!r}')
    for a, b in zip(w, w[1:]):
        if abs(a - b) > 1:
            raise ValueError(f'invalid step {a} -> {b}')
    return w


def is_motzkin(letters):
    """True iff the word starts and ends at its minimum letter."""
    try:
        w = check_word(letters)
    except ValueError:
        return False
    return w[0] == w[-1] == min(w)


def is_reduced(letters):
    return is_motzkin(letters) and letters[0] == 1


def height(letters):
    """Height of a Motzkin word: its common first/last (minimal) letter."""
    w = check_word(letters)
    if not (w[0] == w[-1] == min(w)):
        raise ValueError(f'{w} is not a Motzkin word')
    return w[0]


def shift_to_reduced(letters):
    """Shift a Motzkin word of height j down to height 1."""
    w = check_word(letters)
    j = height(w)
    return tuple(x - j + 1 for x in w)


def _grow(n, flat):
    """The reduced words of length n, in lexicographic order, whose step
    k to k + 1 is 0 wherever flat[k - 1]: each prefix extended by its
    last letter - 1, + 0, + 1 (by + 0 alone at a flat step), keeping the
    letters from which the word can still come back down to 1."""
    words = [(1,)]
    for k in range(1, n):
        top = n - k
        if flat[k - 1]:
            words = [w + (w[-1],) for w in words if w[-1] <= top]
        else:
            words = [w + (y,) for w in words
                     for y in (w[-1] - 1, w[-1], w[-1] + 1) if 0 < y <= top]
    return words


@lru_cache(maxsize=12)
def _reduced(n):
    """The reduced words of length n as a tuple. Bounded, so a process
    that lists words of many lengths keeps only 12 tables."""
    return tuple(_grow(n, (False,) * (n - 1)))


def _check_size(n, height):
    if type(n) is not int or n < 1:
        raise ValueError('word length must be >= 1')
    if type(height) is not int or height < 1:
        raise ValueError('height must be >= 1')


def _shifted(words, height):
    """The words of height 1 shifted up to the given height, as a fresh
    list in the same order."""
    if height == 1:
        return list(words)
    up = height - 1
    return [tuple([x + up for x in w]) for w in words]


def enumerate_words(n, height=1):
    """All Motzkin words of length n and the given height, in lexicographic
    order, as a fresh list. Height 1 gives the reduced words M_n; the
    words of height h are those shifted up by h - 1, in the same order."""
    _check_size(n, height)
    return _shifted(_reduced(n), height)


def motzkin_number(k):
    """k-th Motzkin number via the convolution recurrence (M_0 = 1)."""
    if k < 0:
        raise ValueError('negative index')
    m = [1]
    for i in range(1, k + 1):
        val = m[i - 1] + sum(m[a] * m[i - 2 - a] for a in range(i - 1))
        m.append(val)
    return m[k]


def labeled_words(n, labels, height=1):
    """Words w of length n and given height such that equal adjacent labels
    force equal adjacent letters (j_k = j_{k+1} whenever i_k = i_{k+1}),
    in lexicographic order, generated with those steps fixed at 0 so no
    other word of the length is built."""
    ell = tuple(labels)
    if len(ell) != n:
        raise ValueError('labeling length mismatch')
    _check_size(n, height)
    return _shifted(_grow(n, [a == b for a, b in zip(ell, ell[1:])]),
                    height)


def to_tableau(w):
    """Map a reduced Motzkin word of length n to a standard Young tableau
    with n-1 cells and at most three rows.

    The step sequence is read left to right: an up step opens row 1, a
    horizontal step closes an open up step into row 2 when possible
    (otherwise row 1), a down step closes an open row-2 horizontal into
    row 3 when possible (otherwise it closes an up step into row 2).
    """
    w = check_word(w)
    if w[0] != 1 or w[-1] != 1:  # letters are >= 1, so 1 is the minimum
        raise ValueError(f'{w} is not a reduced Motzkin word')
    rows = [[], [], []]
    open_up = []
    open_h2 = []
    for i, s in enumerate(map(sub, w[1:], w), start=1):
        if s == 1:
            rows[0].append(i)
            open_up.append(i)
        elif s == 0:
            if open_up:
                rows[1].append(i)
                open_up.pop()
                open_h2.append(i)
            else:
                rows[0].append(i)
        else:
            if open_h2:
                rows[2].append(i)
                open_h2.pop()
            else:
                rows[1].append(i)
                open_up.pop()
    return [row for row in rows if row]


def check_tableau(rows):
    """Validate a <=3-row standard Young tableau filled with 1..m, given
    as a list of lists of ints (not bools)."""
    if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)
            and all(type(x) is int for r in rows for x in r)):
        raise ValueError('tableau must be a list of lists of integers')
    if len(rows) > 3:
        raise ValueError('tableau must have at most 3 rows')
    if not rows:
        return []
    lengths = [len(r) for r in rows]
    if any(a < b for a, b in zip(lengths, lengths[1:])):
        raise ValueError('row lengths must be weakly decreasing')
    entries = sorted(x for r in rows for x in r)
    m = len(entries)
    if entries != list(range(1, m + 1)):
        raise ValueError('entries must be exactly 1..m')
    for r in rows:
        if any(a >= b for a, b in zip(r, r[1:])):
            raise ValueError('rows must increase')
    for upper, lower in zip(rows, rows[1:]):
        for j, x in enumerate(lower):
            if upper[j] >= x:
                raise ValueError('columns must increase')
    return [list(r) for r in rows]


def from_tableau(rows):
    """Inverse of to_tableau: recover the reduced word from the tableau.

    One scan over 1..m mirrors to_tableau: an entry of row 2 or 3 closes
    the latest unclosed entry of the row above. A row-1 entry is an up
    step if it is closed later and flat otherwise, a row-2 entry flat if
    it is closed later and down otherwise, and a row-3 entry down.

    Every standard tableau encodes a reduced word: its columns increase,
    so the j-th entry of a lower row finds the row above holding at
    least j + 1 entries and j closed, and each down step closes an up
    step before it."""
    rows = check_tableau(rows)
    row_of = {x: r for r, row in enumerate(rows) for x in row}
    steps = [0] * len(row_of)
    unclosed = [[], [], []]
    for i in range(len(row_of)):
        r = row_of[i + 1]
        if r:
            steps[unclosed[r - 1].pop()] += 1
            steps[i] = -1
        unclosed[r].append(i)
    return tuple(accumulate(steps, initial=1))


def parse_word(text):
    """Parse a word given as digits ('12321') or comma-separated letters.

    Raises ValueError naming the first token that is not an integer.
    """
    text = text.strip()
    letters = []
    for t in text.split(',') if ',' in text else text:
        try:
            letters.append(int(t))
        except ValueError:
            raise ValueError(f'letters must be positive integers, got {t!r} '
                             f'in {text!r}') from None
    return check_word(letters)


def format_word(w):
    if max(w) > 9:
        return ','.join(str(x) for x in w)
    return ''.join(str(x) for x in w)
