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
