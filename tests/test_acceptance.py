"""Runs every numbered acceptance criterion at full scale and prints a
pass/fail line for each; checks that criterion 8 counts and times each
lemma row and names the first failing case with a reproducer."""

import concurrent.futures
import re

import pytest

from ncmotzkin import acceptance
from ncmotzkin import replicas as rp
from ncmotzkin.cumulants import ONE


@pytest.mark.parametrize('num,name',
                         [(n, name) for n, name, _fn in acceptance.CRITERIA])
def test_criterion(num, name):
    ok, detail, dt = acceptance.run_criterion(num, 'full')
    status = 'PASS' if ok else 'FAIL'
    print(f'[{status}] criterion {num} ({name}): {detail} [{dt:.1f}s]')
    assert ok, f'criterion {num} ({name}): {detail}'


def test_replica_suite_reports_sub_check_times():
    ok, detail = acceptance.crit_replicas('quick')
    assert ok, detail
    assert re.match(r'examples fixed \d+\.\d\ds; 4144 lemma cases: ', detail)
    rows = detail.split(': ', 1)[1].split(', ')
    assert len(rows) == len(acceptance.LEMMAS)
    for row, text in zip(acceptance.LEMMAS, rows):
        assert re.fullmatch(re.escape(row.name) + r' \d+ \d+\.\d\ds', text)


def test_replica_suite_names_failing_sub_check(monkeypatch):
    rows = list(acceptance.LEMMAS)
    i = next(i for i, row in enumerate(rows) if row.name == 'nesting')
    right = rows[i].sides

    def wrong(*args):
        lhs, rhs = right(*args)
        return lhs, rhs + rp.BElement({1: ONE})

    rows[i] = rows[i]._replace(sides=wrong)
    monkeypatch.setattr(acceptance, 'LEMMAS', rows)
    ok, detail = acceptance.crit_replicas('full')
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
