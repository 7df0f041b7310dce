"""Run the benchmark on ten seeds of every workload and record the
medians, their spread and one traced run in `perfbench/baseline.json`.

Usage: python3 perfbench/record.py

Each end-to-end metric is recorded with its median over the seeds and
its spread: the distance between the first and third quartile as a
share of the median. The same is recorded for the raw figures, the ones
not scaled to the reference speed. The per-layer values come from a
traced run on the first seed. Machine info and the git revision, when
there is one, go with them. Every run takes BENCHMARK.json's
`run_seconds`.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run as bench

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / 'run.py'), '--workload', workload,
           '--seed', str(seed), '--seconds', str(seconds),
           '--trace', str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f'{" ".join(cmd)} failed:\n{proc.stderr}')
    return json.loads(proc.stdout.splitlines()[-1])


def revision():
    try:
        proc = subprocess.run(['git', 'rev-parse', 'HEAD'], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def summarize(values, bound=None, unit=None):
    median = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    out = {'median': median, 'spread': (q3 - q1) / median}
    if bound is not None:
        out.update(bound=bound, unit=unit)
    out['values'] = values
    return out


def main():
    spec = json.loads((ROOT / 'BENCHMARK.json').read_text())
    seconds = spec['run_seconds']
    record = {
        'revision': revision(),
        'machine': {'nproc': os.cpu_count(),
                    'python': platform.python_version(),
                    'machine': platform.machine()},
        'run_seconds': seconds,
        'seeds': SEEDS,
        'workloads': {},
    }
    for workload in spec['workloads']:
        name = workload['name']
        runs, raws = [], []
        for seed in SEEDS:
            runs.append(run(name, seed, seconds, 0))
            raws.append(json.loads(
                bench.figures_path(name, seed).read_text())['raw'])
        traced = run(name, SEEDS[0], seconds, 1)
        e2e, raw = {}, {}
        for metric in spec['end_to_end']:
            key = metric['name']
            e2e[key] = summarize([r['metrics'][key]['value'] for r in runs],
                                 metric['bound'], metric['unit'])
            raw[key] = summarize([r[key] for r in raws])
            print(f'{name:15s} {key:12s} median {e2e[key]["median"]:10.4f} '
                  f'spread {e2e[key]["spread"]:.3f} '
                  f'(raw {raw[key]["spread"]:.3f}, '
                  f'bound {metric["bound"]})', flush=True)
        record['workloads'][name] = {
            'why': workload['why'],
            'correct': all(r['correct'] for r in runs + [traced]),
            'attempted': sum(r['attempted'] for r in runs),
            'failed': sum(r['failed'] for r in runs + [traced]),
            'end_to_end': e2e,
            'raw_end_to_end': raw,
            'per_layer': {k: v['value']
                          for k, v in traced['metrics'].items()},
        }
        (HERE / 'baseline.json').write_text(
            json.dumps(record, indent=1) + '\n')


if __name__ == '__main__':
    main()
