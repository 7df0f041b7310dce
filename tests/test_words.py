from itertools import product

import pytest
from hypothesis import given, strategies as st

from ncmotzkin import words as wd

MOTZKIN = [1, 1, 2, 4, 9, 21, 51, 127, 323]


def test_enumeration_counts():
    for n in range(1, 9):
        assert len(wd.enumerate_words(n)) == MOTZKIN[n - 1]


def test_motzkin_number_recurrence():
    for k in range(9):
        assert wd.motzkin_number(k) == MOTZKIN[k]


def test_enumeration_is_sorted_and_valid():
    for n in range(1, 7):
        words = wd.enumerate_words(n)
        assert words == sorted(words)
        assert all(wd.is_reduced(w) for w in words)


def frozen_enumerate_words(n, height=1):
    """enumerate_words as it was before the shifted table: a depth-first
    search over prefixes at the given height."""
    if n < 1:
        raise ValueError('word length must be >= 1')
    if height < 1:
        raise ValueError('height must be >= 1')
    j = height
    out = []

    def extend(prefix, last):
        k = len(prefix)
        if k == n:
            if last == j:
                out.append(tuple(prefix))
            return
        for nxt in (last - 1, last, last + 1):
            # prune: must be able to come back down to j in time
            if nxt < j or nxt - j > n - k - 1:
                continue
            prefix.append(nxt)
            extend(prefix, nxt)
            prefix.pop()

    extend([j], j)
    return out


def brute_force_words(n, h):
    """Every sequence over h..h+n-1 that starts and ends at h, never goes
    below it and steps by at most 1, in lexicographic order."""
    return [w for w in product(range(h, h + n), repeat=n)
            if w[0] == w[-1] == min(w) == h
            and all(abs(a - b) <= 1 for a, b in zip(w, w[1:]))]


def test_enumeration_matches_frozen_and_brute_force():
    for n in range(1, 10):
        for h in (1, 2, 3):
            got = wd.enumerate_words(n, h)
            assert got == frozen_enumerate_words(n, h), (n, h)
            if n <= 7:
                assert got == brute_force_words(n, h), (n, h)


def test_enumeration_returns_fresh_lists_from_a_bounded_cache():
    first = wd.enumerate_words(4)
    first.append('spoiled')
    first[0] = None
    assert wd.enumerate_words(4) == [(1, 1, 1, 1), (1, 1, 2, 1),
                                     (1, 2, 1, 1), (1, 2, 2, 1)]
    assert wd.enumerate_words(4) is not wd.enumerate_words(4)
    assert wd.enumerate_words(4, 2) is not wd.enumerate_words(4, 2)
    # one table per length, and no more than 12 of them
    assert wd._reduced.cache_info().maxsize == 12
    for n in range(1, 15):
        wd.enumerate_words(n)
    assert wd._reduced.cache_info().currsize == 12


@pytest.mark.parametrize('n, height, message', [
    (True, 1, 'word length must be >= 1'),
    (3.0, 1, 'word length must be >= 1'),
    ('3', 1, 'word length must be >= 1'),
    (0, 1, 'word length must be >= 1'),
    (3, True, 'height must be >= 1'),
    (3, 2.0, 'height must be >= 1'),
    (3, 0, 'height must be >= 1'),
])
def test_enumeration_refuses_non_integer_sizes(n, height, message):
    with pytest.raises(ValueError, match=message):
        wd.enumerate_words(n, height)


def test_non_integer_letters_are_refused():
    for letters, bad in (([True, 2, True], 'True'), ([1, 2.0, 1], '2.0'),
                         ([1, '2', 1], "'2'"), ([False], 'False')):
        with pytest.raises(ValueError, match=f'positive integers, got {bad}'):
            wd.check_word(letters)
    assert wd.check_word([1, 2, 1]) == (1, 2, 1)


def test_height_and_shift():
    assert wd.height((2, 3, 2)) == 2
    assert wd.enumerate_words(1) == [(1,)]
    assert wd.enumerate_words(1, height=3) == [(3,)]
    assert wd.enumerate_words(3, height=2) == \
        [(2, 2, 2), (2, 3, 2)]
    assert wd.shift_to_reduced((2, 3, 2)) == (1, 2, 1)
    with pytest.raises(ValueError):
        wd.height((1, 2, 2))


def test_check_word_rejects_bad_input():
    with pytest.raises(ValueError):
        wd.check_word(())
    with pytest.raises(ValueError):
        wd.check_word((1, 3))
    with pytest.raises(ValueError):
        wd.check_word((0, 1))


def test_labeled_words_filter():
    # equal adjacent labels force equal adjacent letters
    assert wd.labeled_words(3, (1, 1, 2)) == [(1, 1, 1)]
    assert wd.labeled_words(3, (1, 2, 1)) == [(1, 1, 1), (1, 2, 1)]


def frozen_labeled_words(n, labels, height=1):
    """labeled_words as it was before it generated its words: every word
    of the length and height, filtered by the labels."""
    ell = tuple(labels)
    if len(ell) != n:
        raise ValueError('labeling length mismatch')
    result = []
    for w in wd.enumerate_words(n, height):
        if all(w[k] == w[k + 1] for k in range(n - 1) if ell[k] == ell[k + 1]):
            result.append(w)
    return result


def test_labeled_words_match_frozen_filter():
    cases = 0
    for n in range(1, 10):
        for ell in product((1, 2), repeat=n):
            for h in (1, 2, 3):
                got = wd.labeled_words(n, ell, h)
                assert got == frozen_labeled_words(n, ell, h), (n, ell, h)
                cases += 1
    assert cases == 3 * (2 ** 10 - 2)
    # a fresh list each time, and a length no filter could reach: there
    # are M_59 words of length 60
    first = wd.labeled_words(4, (1, 2, 2, 1))
    first.append('spoiled')
    assert wd.labeled_words(4, (1, 2, 2, 1)) == [(1, 1, 1, 1), (1, 2, 2, 1)]
    assert wd.labeled_words(60, (1,) * 60, 2) == [(2,) * 60]


@pytest.mark.parametrize('n, labels, height, message', [
    (3, (1, 2), 1, 'labeling length mismatch'),
    ('3', (1, 2, 1), 1, 'labeling length mismatch'),
    (0, (), 1, 'word length must be >= 1'),
    (True, (1,), 1, 'word length must be >= 1'),
    (2, (1, 2), 0, 'height must be >= 1'),
    (2, (1, 2), 2.0, 'height must be >= 1'),
])
def test_labeled_words_keep_their_errors(n, labels, height, message):
    with pytest.raises(ValueError, match=message):
        wd.labeled_words(n, labels, height)
    with pytest.raises(ValueError, match=message):
        frozen_labeled_words(n, labels, height)


def test_parse_and_format():
    assert wd.parse_word('12321') == (1, 2, 3, 2, 1)
    assert wd.parse_word('1,2,1') == (1, 2, 1)
    assert wd.format_word((1, 2, 1)) == '121'
    assert wd.parse_word(' 1, 2,1 ') == (1, 2, 1)
    for text, token in (('1,,2', "''"), ('1 2', "' '"), ('x', "'x'"),
                        ('1,2,a1', "'a1'")):
        with pytest.raises(ValueError, match=f'got {token} in'):
            wd.parse_word(text)
    with pytest.raises(ValueError, match='empty word'):
        wd.parse_word('')


def test_tableau_examples():
    assert wd.to_tableau((1, 2, 3, 2, 1)) == [[1, 2], [3, 4]]
    assert wd.to_tableau((1, 2, 1, 2, 1)) == [[1, 3], [2, 4]]
    assert wd.from_tableau([[1, 2], [3, 4]]) == (1, 2, 3, 2, 1)


def test_tableau_keeps_its_messages():
    for w, message in (
            ((2, 3, 3, 2), r'\(2, 3, 3, 2\) is not a reduced Motzkin word'),
            ((1, 2, 2), r'\(1, 2, 2\) is not a reduced Motzkin word'),
            ((1, 2, 4, 2, 1), 'invalid step 2 -> 4'),
            ((), 'empty word'),
            ((True, True), 'letters must be positive integers, got True')):
        with pytest.raises(ValueError, match=f'^{message}$'):
            wd.to_tableau(w)


def test_tableau_rejects_bad_shapes():
    with pytest.raises(ValueError):
        wd.check_tableau([[1], [2], [3], [4]])
    with pytest.raises(ValueError):
        wd.check_tableau([[2, 1]])
    with pytest.raises(ValueError):
        wd.check_tableau([[1, 3], [2, 2]])


@given(st.integers(1, 7).flatmap(
    lambda n: st.sampled_from(wd.enumerate_words(n))))
def test_tableau_round_trip(w):
    assert wd.from_tableau(wd.to_tableau(w)) == w


def test_tableau_image_is_injective():
    for n in range(1, 8):
        images = {str(wd.to_tableau(w)) for w in wd.enumerate_words(n)}
        assert len(images) == MOTZKIN[n - 1]
