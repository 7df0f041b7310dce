"""Runs every numbered acceptance criterion at full scale and prints a
pass/fail line for each; checks that criterion 8 times its sub-checks and
names a failing one with a reproducer."""

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


def test_replica_suite_reports_sub_check_times():
    ok, detail = acceptance.crit_replicas('quick')
    assert ok, detail
    assert detail.startswith('examples fixed; lemma suites exhaustive to '
                             'n=4; _check_examples_replicas() ')
    for call in ('_check_closed_forms(4)', '_check_cumulant_lemmas(4, 2)',
                 '_check_standalone_projections(3)'):
        assert re.search(re.escape(call) + r' \d+\.\d\ds', detail), call


def test_replica_suite_names_failing_sub_check(monkeypatch):
    def _check_nesting(n):
        return f'nesting lemma fails at n={n}'

    monkeypatch.setattr(acceptance, '_check_nesting', _check_nesting)
    ok, detail = acceptance.crit_replicas('full')
    assert not ok
    assert detail == (
        '_check_nesting(5) failed: nesting lemma fails at n=5; reproduce '
        'with python -c "from ncmotzkin import acceptance as a; '
        'print(a._check_nesting(5))"')


def test_process_pool_prints_the_serial_lines():
    def lines(jobs):
        out = []
        assert acceptance.run('quick', out.append, jobs)
        return [re.sub(r'\d+\.\d+s\b', '#s', line) for line in out]

    serial = lines(1)
    assert len(serial) == len(acceptance.CRITERIA) + 1
    assert lines(2) == serial
