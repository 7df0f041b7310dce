import json

import pytest

from ncmotzkin import acceptance
from ncmotzkin import cli
from ncmotzkin import convolution as cv
from ncmotzkin import words as wd


def run(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    out, err = capsys.readouterr()
    return exc.value.code, out, err


def test_words_single(capsys):
    code, out, _ = run(capsys, 'words', '--n', '1')
    assert code == 0
    assert out == '1\n'


def test_words_list(capsys):
    code, out, _ = run(capsys, 'words', '--n', '4')
    assert code == 0
    assert out.splitlines() == ['1111', '1121', '1211', '1221']


def test_words_json(capsys):
    code, out, _ = run(capsys, 'words', '--n', '3', '--json')
    assert code == 0
    assert json.loads(out) == [{'letters': [1, 1, 1]},
                               {'letters': [1, 2, 1]}]


def test_words_labels(capsys):
    code, out, _ = run(capsys, 'words', '--n', '3', '--labels', '112')
    assert code == 0
    assert out.splitlines() == ['111']


def test_words_size_limit(capsys):
    # refused before enumerating, with and without --labels
    assert cli.WORDS_MAX_COUNT == 1_000_000
    assert wd.motzkin_number(16) <= cli.WORDS_MAX_COUNT < wd.motzkin_number(17)
    for n in (18, 22, 10 ** 12):
        for extra in ((), ('--json',), ('--labels', '12' * 11),
                      ('--height', '2')):
            code, out, err = run(capsys, 'words', '--n', str(n), *extra)
            assert code == 1 and out == ''
            assert err == 'error: words lists at most 1000000 words of ' \
                f'one length, so --n is at most 17, not {n}\n'
    code, out, _ = run(capsys, 'words', '--n', '14', '--labels', '1' * 14)
    assert code == 0 and out == '1' * 14 + '\n'


def test_adapted_count(capsys):
    code, out, _ = run(capsys, 'adapted', '--word', '12221', '--irr',
                       '--count')
    assert code == 0
    assert out == '13\n'


def test_adapted_listing(capsys):
    code, out, _ = run(capsys, 'adapted', '--word', '121', '--irr')
    assert code == 0
    assert out.splitlines() == ['{{1,2,3}}', '{{1,3},{2}}']


def test_adapted_json(capsys):
    code, out, _ = run(capsys, 'adapted', '--word', '121', '--monotone',
                       '--irr', '--json')
    assert code == 0
    assert json.loads(out) == [{'word': [1, 2, 1],
                                'blocks': [[1, 3], [2]]}]


def test_adapted_dot(capsys, tmp_path):
    path = tmp_path / 'out.dot'
    code, out, _ = run(capsys, 'adapted', '--word', '1221', '--dot',
                       str(path), '--count')
    assert code == 0
    text = path.read_text()
    assert text.startswith('digraph {')
    assert '"{{1,4},{2,3}}" -> "{{1,2,3,4}}";' in text


def test_dot_vertex_limit(capsys, tmp_path, monkeypatch):
    path = tmp_path / 'out.dot'
    code, out, _ = run(capsys, 'poset', '--n', '8', '--count')
    assert code == 0 and out == '6282\n'
    code, out, err = run(capsys, 'poset', '--n', '9', '--irr', '--dot',
                         str(path))
    assert code == 1 and out == '' and not path.exists()
    assert err == 'error: --dot draws at most 6500 vertices, ' \
        'this poset has 13057\n'
    monkeypatch.setattr(cli, 'HASSE_MAX_VERTICES', 10)
    code, out, err = run(capsys, 'adapted', '--word', '12221', '--dot',
                         str(path), '--count')
    assert code == 1 and out == '' and not path.exists()
    assert err == 'error: --dot draws at most 10 vertices, ' \
        'this poset has 13\n'
    code, out, _ = run(capsys, 'adapted', '--word', '12221', '--monotone',
                       '--dot', str(path), '--count')
    assert code == 0 and out == '4\n' and path.exists()


def test_zero_hat(capsys):
    code, out, _ = run(capsys, 'zero-hat', '--word', '11221')
    assert code == 0
    assert out == '{{1},{2,5},{3},{4}}\n'


def test_non_motzkin_word_is_a_domain_error(capsys):
    for command in ('adapted', 'zero-hat'):
        code, out, err = run(capsys, command, '--word', '12')
        assert code == 1 and out == ''
        assert err == 'error: (1, 2) is not a Motzkin word\n'


def test_poset_count(capsys):
    code, out, _ = run(capsys, 'poset', '--n', '3', '--irr', '--count')
    assert code == 0
    assert out == '3\n'


def test_cumulants_decompose(capsys):
    code, out, _ = run(capsys, 'cumulants', 'decompose', '--n', '3')
    assert code == 0
    assert out.splitlines() == [
        '111: beta(x,x,x)',
        '121: -1*beta(x)*beta(x,x)',
    ]


def test_cumulants_decompose_rejects_empty_variable_names(capsys):
    code, out, err = run(capsys, 'cumulants', 'decompose', '--n', '3',
                         '--multivariate', 'a,,b')
    assert code == 1
    assert out == ''
    assert err == 'error: variable names must be nonempty\n'


def test_cumulants_decompose_json(capsys):
    code, out, _ = run(capsys, 'cumulants', 'decompose', '--n', '4',
                       '--json')
    assert code == 0
    rows = {tuple(r['w']): r['terms'] for r in json.loads(out)}
    assert rows[(1, 2, 2, 1)] == [
        {'coeff': '1', 'monomial': [['beta', 2, [1, 4]],
                                    ['beta', 1, [2]], ['beta', 1, [3]]]},
        {'coeff': '-1', 'monomial': [['beta', 2, [1, 4]],
                                     ['beta', 2, [2, 3]]]},
    ]


def test_cumulants_decompose_json_is_written_as_json_dumps(capsys):
    # written one word at a time, byte for byte as one json.dumps call
    for n in range(1, 9):
        code, out, _ = run(capsys, 'cumulants', 'decompose', '--n', str(n),
                           '--json')
        assert code == 0
        rows = json.loads(out)
        assert [tuple(r['w']) for r in rows] == wd.enumerate_words(n)
        assert out == json.dumps(rows) + '\n'


def test_cumulants_decompose_multivariate(capsys):
    code, out, _ = run(capsys, 'cumulants', 'decompose', '--n', '4',
                       '--multivariate', 'a,b,c,d')
    assert code == 0
    assert out == ('1111: beta(a,b,c,d)\n'
                   '1121: -1*beta(a,b,d)*beta(c)\n'
                   '1211: -1*beta(a,c,d)*beta(b)\n'
                   '1221: beta(a,d)*beta(b)*beta(c) - 1*beta(a,d)*beta(b,c)\n')


def test_cumulants_transform(capsys):
    code, out, _ = run(capsys, 'cumulants', 'transform', '--from', 'beta',
                       '--to', 'r', '--n', '2')
    assert code == 0
    assert out == 'beta(a1,a2)\n'


def test_cumulants_size_limits(capsys):
    # refused at limit + 1 before any work: the names of --multivariate
    # are not even counted, and the transform builds no polynomial
    assert cli.TRANSFORM_MAX_N == {('m', 'r'): 11, ('m', 'beta'): 20,
                                   ('r', 'm'): 12, ('beta', 'm'): 19,
                                   ('beta', 'r'): 13, ('r', 'beta'): 13}
    assert cli.DECOMPOSE_MAX_N == 13
    for (src, dst), limit in cli.TRANSFORM_MAX_N.items():
        for extra in ((), ('--json',)):
            code, out, err = run(capsys, 'cumulants', 'transform', '--from',
                                 src, '--to', dst, '--n', str(limit + 1),
                                 *extra)
            assert code == 1 and out == ''
            assert err == f'error: cumulants transform --from {src} --to ' \
                f'{dst} takes --n at most {limit}, not {limit + 1}\n'
    for extra in ((), ('--json',), ('--multivariate', 'a,b')):
        code, out, err = run(capsys, 'cumulants', 'decompose', '--n', '14',
                             *extra)
        assert code == 1 and out == ''
        assert err == 'error: cumulants decompose takes --n at most 13, ' \
            'not 14\n'
    # a pair with no transform keeps its own error at any order
    code, out, err = run(capsys, 'cumulants', 'transform', '--from', 'm',
                         '--to', 'm', '--n', '50')
    assert code == 1 and err == 'error: no transform m -> m\n'
    code, out, _ = run(capsys, 'cumulants', 'transform', '--from', 'm',
                       '--to', 'beta', '--n', '1')
    assert code == 0 and out == 'm(a1)\n'


def test_replicas_moment(capsys):
    code, out, _ = run(capsys, 'replicas', 'moment', '--word', '11',
                       '--labels', '12', '--vars', 'a,b')
    assert code == 0
    assert out == 'm_1(a)*m_2(b)\n'
    code, out, _ = run(capsys, 'replicas', 'moment', '--word', '121',
                       '--labels', '112', '--vars', 'a,b,c',
                       '--functional', 'E')
    assert code == 0
    assert out == '0\n'
    code, out, _ = run(capsys, 'replicas', 'moment', '--word', '11',
                       '--labels', '12', '--vars', 'a,b',
                       '--functional', 'E')
    assert code == 0
    assert out == '(m_1(a)*m_2(b))*p1\n'
    code, out, _ = run(capsys, 'replicas', 'moment', '--word', '1',
                       '--labels', '1', '--vars', '1')
    assert code == 0
    assert out == '1\n'
    code, out, err = run(capsys, 'replicas', 'moment', '--word', '111',
                         '--labels', '1,1,1', '--vars', 'a,,c')
    assert code == 1
    assert out == ''
    assert 'nonempty' in err


_MIXED = '-1*m_1(a)*m_1(d)*m_2(b,c) + m_1(a,d)*m_2(b,c)'


@pytest.mark.parametrize('word, functional, expected', [
    ('1221', 'phi', _MIXED),
    ('1221', 'E', f'({_MIXED})*p1'),
    ('1221', 'psi:2', '0'),
    ('2332', 'phi', '0'),
    ('2332', 'E', f'({_MIXED})*p2'),
    ('2332', 'psi:2', _MIXED),
])
def test_replicas_moment_functionals(capsys, word, functional, expected):
    # phi is zeta of E: the p1 part counts, the p2 part does not
    code, out, _ = run(capsys, 'replicas', 'moment', '--word', word,
                       '--labels', '1221', '--vars', 'a,b,c,d',
                       '--functional', functional)
    assert code == 0 and out == expected + '\n'


@pytest.mark.parametrize('functional, message', [
    ('psi:x', "unknown functional 'psi:x'"),
    ('psi:', "unknown functional 'psi:'"),
    ('psi:2x', "unknown functional 'psi:2x'"),
    ('psi:-1', "unknown functional 'psi:-1'"),
    ('psi:0', 'color must be >= 1'),
])
def test_replicas_moment_bad_psi_color(capsys, functional, message):
    code, out, err = run(capsys, 'replicas', 'moment', '--word', '1221',
                         '--labels', '1221', '--vars', 'a,b,c,d',
                         '--functional', functional)
    assert code == 1 and not out
    assert err == f'error: {message}\n', err


def test_replicas_moment_expectation_json(capsys):
    code, out, _ = run(capsys, 'replicas', 'moment', '--word', '121',
                       '--labels', '121', '--vars', 'a,b,a',
                       '--functional', 'E', '--json')
    assert code == 0
    data = json.loads(out)
    assert list(data) == ['components']
    assert data['components'][0]['projection'] == 1


def test_replicas_moment_bad_labels(capsys):
    code, _, err = run(capsys, 'replicas', 'moment', '--word', '11',
                       '--labels', '13', '--vars', 'a,b')
    assert code == 1
    assert 'error:' in err


def test_bad_word_tokens_are_named(capsys):
    for text, token in (('1,,2', "''"), ('1 2', "' '"), ('x', "'x'")):
        code, out, err = run(capsys, 'adapted', '--word', text)
        assert code == 1 and not out
        assert f'got {token} in' in err and 'int()' not in err, err


def test_convolve(capsys, tmp_path):
    mu = cv.univariate_distribution([0, 1, 0, 1])
    path = tmp_path / 'mu.json'
    path.write_text(json.dumps(mu.to_json()))
    code, out, _ = run(capsys, 'convolve', '--mu1', str(path), '--mu2',
                       str(path), '--monomial', 'x,x,x,x')
    assert code == 0
    assert out == '6\n'
    code, out, _ = run(capsys, 'convolve', '--mu1', str(path), '--mu2',
                       str(path), '--monomial', 'x,x,x,x', '--by-path')
    assert code == 0
    assert out.splitlines() == ['1111: 4', '1121: 0', '1211: 0', '1221: 2']
    mu = cv.univariate_distribution([0, 1, 0, 1], 'x1')
    path.write_text(json.dumps(mu.to_json()))
    code, out, _ = run(capsys, 'convolve', '--mu1', str(path), '--mu2',
                       str(path), '--monomial', 'x1,x1,x1,x1')
    assert code == 0
    assert out == '6\n'


def test_convolve_word_and_by_path_exclude_each_other(capsys, tmp_path):
    path = tmp_path / 'mu.json'
    path.write_text(json.dumps(cv.univariate_distribution([0, 1]).to_json()))
    code, out, err = run(capsys, 'convolve', '--mu1', str(path), '--mu2',
                         str(path), '--monomial', 'x,x', '--word', '11',
                         '--by-path')
    assert code == 2 and out == ''
    assert 'not allowed with argument' in err


def test_convolve_rejects_unknown_letters(capsys, tmp_path):
    path = tmp_path / 'mu.json'
    path.write_text(json.dumps(cv.univariate_distribution([0, 1]).to_json()))
    for mono, bad in (('x,1', '1'), ('x,z', 'z')):
        for extra in ((), ('--by-path',), ('--word', '11')):
            code, out, err = run(capsys, 'convolve', '--mu1', str(path),
                                 '--mu2', str(path), '--monomial', mono,
                                 *extra)
            assert code == 1
            assert out == ''
            assert f"unknown variable '{bad}'" in err
    # '1' names the unit, so it is no variable name
    path.write_text(json.dumps({'alphabet': ['1'], 'order': 2,
                                'moments': {'1': '5', '11': '7'}}))
    code, out, err = run(capsys, 'convolve', '--mu1', str(path), '--mu2',
                         str(path), '--monomial', '1')
    assert code == 1
    assert out == ''
    assert 'reserved' in err


def test_convolve_length_limit(capsys, tmp_path):
    # refused before the distribution files are read
    for route, limits in cli.CONVOLVE_MAX_LENGTH.items():
        for names, limit, several in (('x', limits[0], ''),
                                      ('xy', limits[1],
                                       ' in more than one name')):
            monomial = ','.join((names * (limit + 1))[:limit + 1])
            for extra in ((), ('--by-path',), ('--word', '1' * (limit + 1))):
                code, out, err = run(capsys, 'convolve', '--mu1',
                                     'missing.json', '--mu2', 'missing.json',
                                     '--monomial', monomial, '--route',
                                     route, *extra)
                assert code == 1 and out == ''
                assert err == f'error: the {route} route takes monomials' \
                    f'{several} of length at most {limit}, this one has ' \
                    f'{limit + 1}\n'
    assert cli.CONVOLVE_MAX_LENGTH == {'monotone': (12, 11),
                                       'replica': (9, 9), 'nested': (9, 9)}
    code, out, err = run(capsys, 'convolve', '--mu1', 'missing.json',
                         '--mu2', 'missing.json', '--monomial',
                         'x,' * 12 + 'x')
    assert code == 1 and 'at most 12, this one has 13' in err
    # two alternating names cost about three times one name at length 12
    code, out, err = run(capsys, 'convolve', '--mu1', 'missing.json',
                         '--mu2', 'missing.json', '--monomial',
                         ','.join('xy' * 6))
    assert code == 1 and 'in more than one name of length at most 11, ' \
        'this one has 12' in err
    # at the limit the files are read as before
    path = tmp_path / 'mu.json'
    path.write_text(json.dumps(cv.univariate_distribution([0, 1]).to_json()))
    code, out, err = run(capsys, 'convolve', '--mu1', str(path), '--mu2',
                         str(path), '--monomial', 'x,x', '--route', 'nested')
    assert code == 0 and out == '2\n'
    code, out, err = run(capsys, 'convolve', '--mu1', str(path), '--mu2',
                         str(path), '--monomial', ','.join('x' * 7),
                         '--route', 'nested', '--word', '1111111')
    assert code == 1 and 'exceeds distribution order' in err


@pytest.mark.parametrize('text, named', [
    ('{}', "'alphabet'"),
    ('{"alphabet": ["x"], "order": 1, "moments": []}', "'moments'"),
    ('{"alphabet": ["x"], "order": "2", "moments": {"x": "0", "xx": "1"}}',
     "'order'"),
    ('{"alphabet": ["x"], "order": 1, "moments": {"x": null}}', "'moments'"),
    ('{"alphabet": ["x"], "order": 1, "moments": {"x": "1/0"}}', "'moments'"),
    ('{"alphabet": ["x"], "order": 1, "moments": {"x": Infinity}}',
     "'moments'"),
    ('{"alphabet": ["x"], "order": 2, "moments": {"x": 0.1, "xx": 1}}',
     "'moments'"),
    ('{"alphabet": ["x"], "order": 1, "moments": {"x": true}}', "'moments'"),
    ('[1]', 'JSON object'),
    ('{"alphabet": [1], "order": 1, "moments": {"1": "0"}}', "'alphabet'"),
    ('{"alphabet": ["x"], "order": 1, "moments": {"": "5", "x": "1"}}',
     "'moments'"),
])
def test_convolve_rejects_malformed_distribution_files(capsys, tmp_path,
                                                       text, named):
    path = tmp_path / 'mu.json'
    path.write_text(text)
    code, out, err = run(capsys, 'convolve', '--mu1', str(path), '--mu2',
                         str(path), '--monomial', 'x')
    assert code == 1 and out == ''
    assert err.startswith('error:') and named in err, err


def test_convolve_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, 'convolve', '--mu1', 'missing.json',
                       '--mu2', 'missing.json', '--monomial', 'x')
    assert code == 1
    assert 'error:' in err


def test_syt_word_to_tableau(capsys):
    code, out, _ = run(capsys, 'syt', '--word', '12321')
    assert code == 0
    assert out == '[[1,2],[3,4]]\n'


def test_syt_tableau_to_word(capsys):
    code, out, _ = run(capsys, 'syt', '--tableau', '[[1,2],[3,4]]')
    assert code == 0
    assert out == '12321\n'


@pytest.mark.parametrize('rows', ['[1]', '{}', '[[true]]', '[[1.0,2]]'])
def test_syt_rejects_tableaux_not_lists_of_int_lists(capsys, rows):
    code, out, err = run(capsys, 'syt', '--tableau', rows)
    assert code == 1
    assert out == ''
    assert err.startswith('error:')


def test_syt_requires_one_input(capsys):
    code, _, err = run(capsys, 'syt')
    assert code == 1


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, 'words', '--n', '0')
    assert code == 1
    assert err.startswith('error:')


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, 'nonsense')
    assert code == 2


@pytest.mark.parametrize('jobs', ['0', '-3', 'two'])
def test_verify_rejects_fewer_than_one_job(capsys, jobs):
    code, _, err = run(capsys, 'verify', '--quick', '--jobs', jobs)
    assert code == 2
    assert f"--jobs: must be a positive integer, got '{jobs}'" in err


def test_verify_quick_passes(capsys):
    code, out, _ = run(capsys, 'verify', '--quick')
    lines = out.splitlines()
    assert code == 0
    assert [line[:7] for line in lines[:-1]] == ['[PASS] '] * 11
    assert lines[-1] == 'ALL PASS'


def test_verify_fails_on_a_failing_row(capsys, monkeypatch):
    monkeypatch.setattr(acceptance, 'CRITERIA', [
        (n, title, [row._replace(holds=lambda *case: False)
                    if row.name == 'unit-vanishing' else row for row in rows])
        for n, title, rows in acceptance.CRITERIA])
    code, out, _ = run(capsys, 'verify', '--quick')
    lines = out.splitlines()
    assert code == 1
    fails = [line for line in lines if line.startswith('[FAIL]')]
    assert len(fails) == 1
    assert fails[0].startswith(
        '[FAIL] criterion  9 (free moments and unit vanishing): '
        'unit-vanishing fails at 2, 0; reproduce with python -c ')
    assert len(lines) == 12 and lines[-1] == 'FAILURES PRESENT'


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, 'cumulants', 'decompose', '--n', '5')
    _, second, _ = run(capsys, 'cumulants', 'decompose', '--n', '5')
    assert first == second
