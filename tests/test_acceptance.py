"""Runs every numbered acceptance criterion at full scale and prints a
pass/fail line for each; checks that every row of every criterion is
counted and timed, and that a failing row is named with its first
failing case and a one-line reproducer."""

import concurrent.futures
import re

import pytest

from ncmotzkin import acceptance


@pytest.mark.parametrize('num,name',
                         [(n, name) for n, name, _fn in acceptance.CRITERIA])
def test_criterion(num, name):
    ok, detail, dt = acceptance.run_criterion(num, 'full')
    status = 'PASS' if ok else 'FAIL'
    print(f'[{status}] criterion {num} ({name}): {detail} [{dt:.1f}s]')
    assert ok, f'criterion {num} ({name}): {detail}'


def patch_row(monkeypatch, name):
    """Make the named row of acceptance.CRITERIA fail wherever it held."""
    def wrong(right):
        return lambda *case: not right(*case)
    monkeypatch.setattr(acceptance, 'CRITERIA', [
        (n, title, [row._replace(holds=wrong(row.holds))
                    if row.name == name else row for row in rows])
        for n, title, rows in acceptance.CRITERIA])


def test_replica_suite_reports_sub_check_times():
    ok, detail, _dt = acceptance.run_criterion(8, 'quick')
    assert ok, detail
    total, table = re.fullmatch(r'(\d+) cases: (.+)', detail).groups()
    counts = {}
    for text in table.split(', '):
        name, count, sec = text.rsplit(' ', 2)
        assert re.fullmatch(r'\d+', count) and re.fullmatch(r'\d+\.\d\ds', sec)
        counts[name] = int(count)
    rows = acceptance.CRITERIA[7][2]
    assert list(counts) == [row.name for row in rows]
    assert rows[-len(acceptance.LEMMAS):] == acceptance.LEMMAS
    assert sum(counts[row.name] for row in acceptance.LEMMAS) == 4144
    assert int(total) == sum(counts.values())


def test_replica_suite_names_failing_sub_check(monkeypatch):
    patch_row(monkeypatch, 'nesting')
    ok, detail, _dt = acceptance.run_criterion(8, 'full')
    assert not ok
    call = "check_case('nesting', (1, 2, 1), (1, 2, 1), 1, 1)"
    assert detail == (
        'nesting fails at (1, 2, 1), (1, 2, 1), 1, 1; reproduce with '
        'python -c "from ncmotzkin import acceptance as a; '
        f'print(a.{call})"')
    printed = re.search(r'print\((.+)\)"$', detail).group(1)
    assert eval(printed, {'a': acceptance}) is False
    monkeypatch.undo()
    assert eval(printed, {'a': acceptance}) is True


def test_any_criterion_names_its_failing_row(monkeypatch):
    patch_row(monkeypatch, 'routes')
    ok, detail, _dt = acceptance.run_criterion(10, 'quick')
    assert not ok
    assert detail == (
        'routes fails at (1,); reproduce with python -c "from ncmotzkin '
        'import acceptance as a; print(a.check_case(\'routes\', (1,)))"')
    printed = re.search(r'print\((.+)\)"$', detail).group(1)
    assert eval(printed, {'a': acceptance}) is False
    monkeypatch.undo()
    assert eval(printed, {'a': acceptance}) is True


def test_fixed_row_reproducer_has_no_case(monkeypatch):
    patch_row(monkeypatch, 'fig1-covers')
    ok, detail, _dt = acceptance.run_criterion(2, 'quick')
    assert not ok
    assert detail.startswith('fig1-covers fails; reproduce with ')
    assert detail.endswith('print(a.check_case(\'fig1-covers\'))"')


def test_row_names_are_unique():
    names = [row.name for _n, _title, rows in acceptance.CRITERIA
             for row in rows]
    assert len(names) == len(set(names))


# (full, quick) case counts of every row outside the lemma table, in row
# order; the lemma rows are pinned in tests/test_replicas.py
CASE_COUNTS = {
    1: [(8, 6), (9, 7), (9, 7), (9, 7)],
    2: [(1, 1)] * 3,
    3: [(9, 9), (1, 1), (1, 1)],
    4: [(89, 17), (38, 8)],
    5: [(1, 1)] * 3 + [(42, 30)],
    6: [(13, 13), (14, 10), (7, 5)],
    7: [(1, 1), (1, 1), (4, 4), (2, 2)],
    8: [(6, 6), (1, 1), (1, 1), (6, 6), (3, 3), (18, 18), (10, 10), (1, 1)],
    9: [(6, 5), (14, 9)],
    10: [(3, 3), (1, 1), (1, 1), (17, 8), (6, 5), (6, 5)],
    11: [(9, 9), (8, 6)],
}


@pytest.mark.parametrize('num', sorted(CASE_COUNTS))
def test_row_case_counts(num):
    rows = {n: rows for n, _title, rows in acceptance.CRITERIA}[num]
    counts = [(len(row.cases(row.tops[0])), len(row.cases(row.tops[1])))
              for row in rows]
    lemmas = len(acceptance.LEMMAS) if num == 8 else 0
    assert counts[:len(rows) - lemmas] == CASE_COUNTS[num]
    if lemmas:
        assert [sum(c) for c in zip(*counts[-lemmas:])] == [19726, 4144]


@pytest.mark.parametrize('scale', ['ful', 'Full', 'QUICK', None])
def test_mistyped_scale_is_refused(scale):
    with pytest.raises(ValueError, match="'full' or 'quick'"):
        acceptance.run(scale, lambda line: None)
    with pytest.raises(ValueError, match="'full' or 'quick'"):
        acceptance.run_criterion(1, scale)


def test_process_pool_prints_the_serial_lines():
    def lines(jobs):
        out = []
        assert acceptance.run('quick', out.append, jobs)
        return [re.sub(r'\d+\.\d+s\b', '#s', line) for line in out]

    serial = lines(1)
    assert len(serial) == len(acceptance.CRITERIA) + 1
    assert lines(2) == serial


def test_process_pool_has_one_worker_per_criterion_at_most(monkeypatch):
    sizes = []

    class Pool:
        # records the pool size and starts no process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result((True, 'not run', 0.0))
            return future

    monkeypatch.setattr(concurrent.futures, 'ProcessPoolExecutor', Pool)
    for jobs in (2, len(acceptance.CRITERIA), 1000):
        assert acceptance.run('quick', lambda line: None, jobs)
    n = len(acceptance.CRITERIA)
    assert sizes == [2, n, n]
