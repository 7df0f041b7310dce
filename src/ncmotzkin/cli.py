"""Command line interface.

Exit codes: 0 on success, 1 on a domain error (invalid word, missing
moment, ...), 2 on a usage error. All output is exact (integers and
rationals as text) and deterministic.
"""

import argparse
import json
import sys

from . import acceptance
from . import adapted as ad
from . import convolution as cv
from . import cumulants as cm
from . import partitions as sp
from . import replicas as rp
from . import words as wd
from .cumulants import format_belement, format_poly

# Largest vertex set `--dot` draws within about 4 s. Both commands
# intersect pair bitsets; from a fresh process on a 2-core x86-64
# machine (Python 3.11): poset --n 8 (6,282 vertices) 1.6-2.0 s,
# adapted --word 1^13 (4,096) 1.3 s, adapted --word 1^14 (8,192)
# 3.9-4.7 s, poset --n 9 --irr (13,057) 6.2-6.7 s.
HASSE_MAX_VERTICES = 6500
# Longest monomial `convolve` takes, per route, as (one distinct name,
# more than one): the last length whose boxplus_total, from a fresh
# process, finishes within about 20 s on a 2-core x86-64 machine (Python
# 3.11); each length costs 3 to 9 times the one before. monotone, one
# name: n=12 7.4-9.2 s; two alternating names: n=11 6.0-8.1 s, n=12 31 s;
# three: n=11 10.5 s; all distinct: n=11 10.5-11.9 s; with the runs
# cached up to 1,024, these four peak at 28, 39, 51 and 59 MB RSS.
# replica and nested build half of each part and mirror it, on interned
# replica strings and monomials: replica, n=9, one name 2.8-4.2 s, two
# alternating 3.4-4.4 s, three 3.0 s, all distinct 3.2 s (29 MB); n=10,
# one name 17.0-20.8 s, at the budget. nested, with each block's K by
# the inversion formula folded over the grammar: n=9, one name 6.1 s,
# two alternating 8.3 s, three 8.5 s, all distinct 8.1 s (at most
# 36 MB); n=8 1.2-1.5 s. Three and all distinct names time
# boxplus_total_sym, since their moment tables are too large to write.
CONVOLVE_MAX_LENGTH = {'monotone': (12, 11), 'replica': (9, 9),
                       'nested': (9, 9)}
# Most words of one length `words` lists: the 853,467 of length 17 print
# within about 5 s from a fresh process on a 2-core x86-64 machine, and
# the 2,356,779 of length 18 take 11-16 s and up to 1.7 GB.
WORDS_MAX_COUNT = 1_000_000
# Largest --n `cumulants transform` takes per direction: the last order
# whose polynomial, from a fresh process, is built within about 20 s
# and 0.5 GB.
TRANSFORM_MAX_N = {('m', 'r'): 11, ('m', 'beta'): 20, ('r', 'm'): 12,
                   ('beta', 'm'): 19, ('beta', 'r'): 13, ('r', 'beta'): 13}
# Largest --n `cumulants decompose` takes: the last length whose pieces,
# from a fresh process, are all built within about 20 s and 0.5 GB, in
# text, --json and --multivariate alike.
DECOMPOSE_MAX_N = 13


def _word_json(w):
    return {'letters': list(w)}


def _partition_json(w, pi):
    return {'word': list(w), 'blocks': [list(b) for b in pi]}


def _sym_json(sym, positions):
    kind, label, args = sym
    pos = [positions.get(a, 0) for a in args]
    entry = [kind, len(args), pos]
    if label:
        entry.append(label)
    return entry


def _poly_json(p, variables):
    positions = {}
    for i, v in enumerate(variables, start=1):
        positions.setdefault(str(v), i)
    out = []
    for mono, c in sorted(cm.raw_terms(p).items()):
        out.append({'coeff': str(c),
                    'monomial': [_sym_json(s, positions) for s in mono]})
    return out


def _emit(out=''):
    sys.stdout.write(str(out) + '\n')


def _check_hasse_size(verts):
    if len(verts) > HASSE_MAX_VERTICES:
        raise ValueError(f'--dot draws at most {HASSE_MAX_VERTICES} '
                         f'vertices, this poset has {len(verts)}')


def _write_dot(path, verts, edges, node_id, rank_key):
    lines = ['digraph {', '  rankdir=BT;']
    by_rank = {}
    for v in verts:
        lines.append(f'  "{node_id(v)}";')
        by_rank.setdefault(rank_key(v), []).append(v)
    for rank in sorted(by_rank):
        ids = ' '.join(f'"{node_id(v)}";' for v in by_rank[rank])
        lines.append('  { rank=same; ' + ids + ' }')
    for a, b in edges:
        lines.append(f'  "{node_id(a)}" -> "{node_id(b)}";')
    lines.append('}')
    with open(path, 'w') as fh:
        fh.write('\n'.join(lines) + '\n')


def _check_words_size(n):
    """Refuse a length whose words, M_(n-1) at any height, outnumber
    WORDS_MAX_COUNT, before enumerating; M_k grows with k, so the
    longest length allowed is the first k with M_k over the limit."""
    top = 1
    while wd.motzkin_number(top) <= WORDS_MAX_COUNT:
        top += 1
    if n > top:
        raise ValueError(f'words lists at most {WORDS_MAX_COUNT} words of '
                         f'one length, so --n is at most {top}, not {n}')


def cmd_words(args):
    _check_words_size(args.n)
    if args.labels is not None:
        labels = wd.parse_word(args.labels)
        out = wd.labeled_words(args.n, labels, args.height)
    else:
        out = wd.enumerate_words(args.n, args.height)
    if args.json:
        _emit(json.dumps([_word_json(w) for w in out]))
    else:
        for w in out:
            _emit(wd.format_word(w))


def _adapted_class(args):
    if args.irr and args.monotone:
        return 'monotone_irr'
    if args.irr:
        return 'irr'
    if args.monotone:
        return 'monotone'
    return 'all'


def cmd_adapted(args):
    w = wd.parse_word(args.word)
    wd.height(w)  # raises on a word that is not a Motzkin word
    cls = _adapted_class(args)
    out = ad.enumerate_adapted(w, cls)
    if args.dot:
        _check_hasse_size(out)
        _write_dot(args.dot, out, ad.hasse_adapted(w, cls),
                   sp.format_partition, len)
    if args.count:
        _emit(len(out))
    elif args.json:
        _emit(json.dumps([_partition_json(w, pi) for pi in out]))
    else:
        for pi in out:
            _emit(sp.format_partition(pi))


def cmd_zero_hat(args):
    w = wd.parse_word(args.word)
    pi = ad.zero_hat(w)
    if args.json:
        _emit(json.dumps(_partition_json(w, pi)))
    else:
        _emit(sp.format_partition(pi))


def cmd_poset(args):
    verts = ad.poset_ncn(args.n, irr=args.irr)
    if args.dot:
        _check_hasse_size(verts)
        _write_dot(args.dot, verts, ad.hasse(verts),
                   lambda v: f'{sp.format_partition(v[0])} {wd.format_word(v[1])}',
                   lambda v: len(v[0]))
    if args.count:
        _emit(len(verts))
    elif args.json:
        _emit(json.dumps([_partition_json(w, pi) for pi, w in verts]))
    else:
        for pi, w in verts:
            _emit(f'{sp.format_partition(pi)} {wd.format_word(w)}')


def _names(text):
    """Comma-separated variable names, each nonempty."""
    names = tuple(text.split(','))
    if not all(names):
        raise ValueError('variable names must be nonempty')
    return names


def _check_order(command, n, limit):
    if n > limit:
        raise ValueError(f'{command} takes --n at most {limit}, not {n}')


def cmd_cumulants_decompose(args):
    n = args.n
    _check_order('cumulants decompose', n, DECOMPOSE_MAX_N)
    if args.multivariate:
        variables = _names(args.multivariate)
        if len(variables) != n:
            raise ValueError('need one variable per letter')
    else:
        variables = ('x',) * n
    # one word at a time: the --json list is written as json.dumps would
    # write it, without holding every word's terms at once
    sep = '['
    for w in wd.enumerate_words(n):
        if args.json:
            terms = [{'coeff': str((-1) ** (len(pi) - 1)),
                      'monomial': [['beta', len(b), list(b)] for b in pi]}
                     for pi in ad.enumerate_adapted(w, 'monotone_irr')]
            sys.stdout.write(sep + json.dumps({'w': list(w), 'terms': terms}))
            sep = ', '
        else:
            val = cm.motzkin_k(w, [(v, 0) for v in variables])
            _emit(f'{wd.format_word(w)}: {format_poly(val)}')
    if args.json:
        _emit(']')


def cmd_cumulants_transform(args):
    pair = args.src, args.dst
    if pair in TRANSFORM_MAX_N:
        _check_order(f'cumulants transform --from {args.src} --to '
                     f'{args.dst}', args.n, TRANSFORM_MAX_N[pair])
    variables = tuple(f'a{i + 1}' for i in range(args.n))
    val = cm.transform(args.src, args.dst, 0, variables)
    if args.json:
        _emit(json.dumps({'from': args.src, 'to': args.dst, 'n': args.n,
                          'terms': _poly_json(val, variables)}))
    else:
        _emit(format_poly(val))


def cmd_replicas_moment(args):
    w = wd.parse_word(args.word)
    labels = wd.parse_word(args.labels)
    variables = _names(args.vars)
    if not (len(w) == len(labels) == len(variables)):
        raise ValueError('word, labels and vars must have equal length')
    if any(l not in (1, 2) for l in labels):
        raise ValueError('labels must be 1 or 2')
    x = rp.replica_word(variables, labels, w)
    spec = args.functional
    if spec == 'phi':
        val = rp.phi(x)
    elif spec == 'E':
        val = rp.expectation(x)
    elif spec[:4] == 'psi:' and spec[4:].isascii() and spec[4:].isdigit():
        val = rp.psi(int(spec[4:]), x)
    else:
        raise ValueError(f'unknown functional {spec!r}')
    if args.json:
        if spec == 'E':
            comps = [{'projection': j,
                      'terms': _poly_json(val.comp[j], variables)}
                     for j in sorted(val.comp)]
            _emit(json.dumps({'components': comps}))
        else:
            _emit(json.dumps({'terms': _poly_json(val, variables)}))
    else:
        _emit(format_belement(val) if spec == 'E' else format_poly(val))


def _load_distribution(path):
    with open(path) as fh:
        return cv.Distribution.from_json(json.load(fh))


def cmd_convolve(args):
    monomial = tuple(args.monomial.split(','))
    several = len(set(monomial)) > 1
    limit = CONVOLVE_MAX_LENGTH[args.route][several]
    if len(monomial) > limit:
        names = ' in more than one name' if several else ''
        raise ValueError(f'the {args.route} route takes monomials{names} '
                         f'of length at most {limit}, this one has '
                         f'{len(monomial)}')
    mu1 = _load_distribution(args.mu1)
    mu2 = _load_distribution(args.mu2)
    if args.word:
        w = wd.parse_word(args.word)
        val = cv.boxplus_w(mu1, mu2, monomial, w, args.route)
        if args.json:
            _emit(json.dumps({'word': list(w), 'value': str(val)}))
        else:
            _emit(val)
    elif args.by_path:
        parts = cv.decompose(mu1, mu2, monomial, args.route)
        if args.json:
            _emit(json.dumps([{'word': list(w), 'value': str(v)}
                              for w, v in parts.items()]))
        else:
            for w, v in parts.items():
                _emit(f'{wd.format_word(w)}: {v}')
    else:
        val = cv.boxplus_total(mu1, mu2, monomial, args.route)
        if args.json:
            _emit(json.dumps({'value': str(val)}))
        else:
            _emit(val)


def cmd_syt(args):
    if (args.word is None) == (args.tableau is None):
        raise ValueError('need exactly one of --word and --tableau')
    if args.word is not None:
        tab = wd.to_tableau(wd.parse_word(args.word))
        _emit(json.dumps(tab, separators=(',', ':')))
    else:
        rows = json.loads(args.tableau)
        _emit(wd.format_word(wd.from_tableau(rows)))


def cmd_verify(args):
    scale = 'quick' if args.quick else 'full'
    ok = acceptance.run(scale, out=_emit, jobs=args.jobs)
    sys.exit(0 if ok else 1)


def _positive_int(text):
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f'must be a positive integer, got {text!r}')
    return int(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog='ncmotzkin',
        description='Noncrossing partition lattices over Motzkin words: '
                    'enumeration, cumulants, replicas and convolution.')
    sub = parser.add_subparsers(dest='command', required=True)

    p = sub.add_parser('words', help='enumerate Motzkin words')
    p.add_argument('--n', type=int, required=True)
    p.add_argument('--height', type=int, default=1)
    p.add_argument('--labels', help='restrict to words compatible with '
                   'this labeling (digits or comma-separated)')
    p.add_argument('--json', action='store_true')
    p.set_defaults(func=cmd_words)

    p = sub.add_parser('adapted', help='partitions adapted to a word')
    p.add_argument('--word', required=True)
    p.add_argument('--irr', action='store_true')
    p.add_argument('--monotone', action='store_true')
    p.add_argument('--count', action='store_true')
    p.add_argument('--dot', metavar='PATH',
                   help='write the cover relations in DOT format')
    p.add_argument('--json', action='store_true')
    p.set_defaults(func=cmd_adapted)

    p = sub.add_parser('zero-hat', help='least adapted partition')
    p.add_argument('--word', required=True)
    p.add_argument('--json', action='store_true')
    p.set_defaults(func=cmd_zero_hat)

    p = sub.add_parser('poset', help='pairs (partition, word) of a '
                       'given length')
    p.add_argument('--n', type=int, required=True)
    p.add_argument('--irr', action='store_true')
    p.add_argument('--count', action='store_true')
    p.add_argument('--dot', metavar='PATH')
    p.add_argument('--json', action='store_true')
    p.set_defaults(func=cmd_poset)

    p = sub.add_parser('cumulants', help='cumulant calculus')
    csub = p.add_subparsers(dest='subcommand', required=True)

    q = csub.add_parser('decompose', help='word-indexed pieces of the '
                        'free cumulant')
    q.add_argument('--n', type=int, required=True)
    q.add_argument('--multivariate', metavar='VARS',
                   help='comma-separated variable names')
    q.add_argument('--json', action='store_true')
    q.set_defaults(func=cmd_cumulants_decompose)

    q = csub.add_parser('transform', help='moment/free/Boolean '
                        'coordinate changes')
    q.add_argument('--from', dest='src', required=True,
                   choices=['m', 'r', 'beta'])
    q.add_argument('--to', dest='dst', required=True,
                   choices=['m', 'r', 'beta'])
    q.add_argument('--n', type=int, required=True)
    q.add_argument('--json', action='store_true')
    q.set_defaults(func=cmd_cumulants_transform)

    p = sub.add_parser('replicas', help='replica-space functionals')
    rsub = p.add_subparsers(dest='subcommand', required=True)
    q = rsub.add_parser('moment', help='evaluate a functional on a '
                        'replica word')
    q.add_argument('--word', required=True)
    q.add_argument('--labels', required=True)
    q.add_argument('--vars', required=True)
    q.add_argument('--functional', default='phi',
                   help="'phi', 'E' or 'psi:j'")
    q.add_argument('--json', action='store_true')
    q.set_defaults(func=cmd_replicas_moment)

    p = sub.add_parser('convolve', help='free convolution moments and '
                       'their word-indexed parts')
    p.add_argument('--mu1', required=True, metavar='FILE')
    p.add_argument('--mu2', required=True, metavar='FILE')
    p.add_argument('--monomial', required=True,
                   help='comma-separated variables')
    p.add_argument('--word', help='a single word-indexed part')
    p.add_argument('--by-path', action='store_true',
                   help='one line per word-indexed part')
    p.add_argument('--route', default='monotone',
                   choices=['monotone', 'nested', 'replica'])
    p.add_argument('--json', action='store_true')
    p.set_defaults(func=cmd_convolve)

    p = sub.add_parser('syt', help='word/tableau bijection')
    p.add_argument('--word')
    p.add_argument('--tableau', help='JSON rows, e.g. [[1,2],[3,4]]')
    p.set_defaults(func=cmd_syt)

    p = sub.add_parser('verify', help='run the acceptance suite')
    g = p.add_mutually_exclusive_group()
    g.add_argument('--quick', action='store_true')
    g.add_argument('--full', action='store_true')
    p.add_argument('--jobs', type=_positive_int, default=1)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f'error: {exc}\n')
        sys.exit(1)
    sys.exit(0)


if __name__ == '__main__':
    main()
