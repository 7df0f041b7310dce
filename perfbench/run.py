"""Benchmark of ncmotzkin: seeded workloads of exactly checked public
calls, measured end to end, or traced layer by layer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ncmotzkin from `src/`.
Every pass runs in a fresh interpreter, so the package's caches start
empty, as they do for a user of the command line.

- `--trace 0` runs one checked pass, which checks every item's result
  and is not timed, and then timed passes one after another until the
  next one would end after `--seconds`. A timed pass runs only the
  items' set-up and calls, so that the checks neither take its time nor
  fill the package's caches for the calls; its results are checked by
  their digest, which must equal the checked pass's. An item's latency
  is the time of its call and its median over the timed passes; items
  per second and the p50 and p99 item latency come from those. Set-up
  time (interpreter start, import and input generation) and peak RSS
  are medians over the timed passes.
- Times are scaled to a reference speed by a calibration loop timed
  between items (see `worker.run_pass`), because a cloud VM whose
  cores are shared can change speed by half within seconds. The same
  figures unscaled, and the scaled ones, are written to
  `.perfbench-out/WORKLOAD-seedN.json` under the checkout.
- `--trace 1` runs one untraced and one traced pass, both checked, and
  reports the per-layer counters of the traced one and the tracing
  overhead. Spans are written to `.perfbench-out/` too.

Progress, digests and a one-line reproducer for each failed item go to
standard error. The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`. The run
is `correct` when no item failed and every pass gave the same output
digest.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / 'worker.py'
TIME_LIMIT_S = 170


def log(text):
    print(text, file=sys.stderr, flush=True)


def run_worker(workload, seed, deadline, check=True, trace=False):
    """One pass in a fresh interpreter; returns its report with the
    set-up time measured from process start."""
    cmd = [sys.executable, str(WORKER), '--workload', workload,
           '--seed', str(seed)]
    if not check:
        cmd.append('--no-check')
    if trace:
        cmd.append('--trace')
    # a fixed hash seed keeps set iteration, and so the traced call
    # counts, identical from run to run
    env = dict(os.environ, PYTHONHASHSEED='0')
    speed = worker.CALIBRATION_REF_S / statistics.median(
        worker.calibrate() for _ in range(5))
    t0 = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1, deadline - t0))
    except subprocess.TimeoutExpired:
        raise SystemExit(f'perfbench: a pass of {workload} did not finish '
                         f'within {TIME_LIMIT_S} s')
    if proc.returncode != 0:
        raise SystemExit(f'perfbench: worker failed:\n{proc.stderr}')
    report = json.loads(proc.stdout.splitlines()[-1])
    # set-up is scaled by the speed measured just before and just after it
    report['raw_setup_s'] = report['ready'] - t0
    report['setup_s'] = (report['raw_setup_s']
                         * (speed + report['setup_scale']) / 2)
    lat = report['latencies']
    log(f'pass: {len(lat)} calls in {sum(lat):.3f} s at the reference '
        f'speed ({sum(report["raw"]):.3f} s raw), setup '
        f'{report["setup_s"]:.3f} s, {len(report["failures"])} failed, '
        f'digest {report["digest"]}{" (checked)" if check else ""}'
        f'{" (traced)" if trace else ""}')
    for item_id, repro, error in report['failures']:
        log(f'FAILED item {item_id}: {error}\n  {repro}')
    return report


def end_to_end(passes, raw=False):
    """Each item's latency is its median over the passes, which keeps a
    burst of machine-speed change within one pass out of the figures.
    With `raw`, the figures are in seconds as measured, not scaled."""
    key, setup = ('raw', 'raw_setup_s') if raw else ('latencies', 'setup_s')
    per_item = [statistics.median(lat)
                for lat in zip(*(p[key] for p in passes))]
    return {
        'items_per_s': (len(per_item) / sum(per_item), '1/s'),
        'item_p50_ms': (1000 * statistics.median(per_item), 'ms'),
        'item_p99_ms': (1000 * statistics.quantiles(per_item, n=100)[98],
                        'ms'),
        'setup_s': (statistics.median(p[setup] for p in passes), 's'),
        'peak_rss_mb': (statistics.median(p['rss_mb'] for p in passes),
                        'MB'),
    }


def figures_path(workload, seed):
    return ROOT / '.perfbench-out' / f'{workload}-seed{seed}.json'


def write_figures(workload, seed, scaled, raw):
    """The end-to-end figures of a run, scaled and raw, as plain data."""
    path = figures_path(workload, seed)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(
        {'scaled': {name: value for name, (value, _u) in scaled.items()},
         'raw': {name: value for name, (value, _u) in raw.items()}}) + '\n')


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--workload', required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / 'src' / 'ncmotzkin' / '__init__.py').is_file():
        log(f'perfbench: no ncmotzkin sources under {ROOT / "src"}')
        return 1
    start = perf_counter()
    deadline = start + TIME_LIMIT_S
    if args.trace:
        plain = run_worker(args.workload, args.seed, deadline)
        traced = run_worker(args.workload, args.seed, deadline, trace=True)
        passes = [plain, traced]
        overhead = traced['item_s'] / plain['item_s'] - 1
        metrics = tracing.layer_metrics(traced['layers'], overhead)
    else:
        checked = run_worker(args.workload, args.seed, deadline)
        timed_from = perf_counter()
        timed = []
        while True:
            timed.append(run_worker(args.workload, args.seed, deadline,
                                    check=False))
            now = perf_counter()
            if now + (now - timed_from) / len(timed) > start + args.seconds:
                break
        passes = [checked] + timed
        metrics = end_to_end(timed)
        raw = end_to_end(timed, raw=True)
        for name, (value, unit) in raw.items():
            log(f'  raw {name} = {value:.6g} {unit}')
        write_figures(args.workload, args.seed, metrics, raw)
    attempted = sum(len(p['latencies']) for p in passes)
    failed = sum(len(p['failures']) for p in passes)
    digests = {p['digest'] for p in passes}
    log(f'{args.workload} seed {args.seed}: {len(passes)} passes, '
        f'{attempted} items, failed_frac {failed / attempted:.4g}, '
        f'digest {"/".join(sorted(digests))}')
    for name, (value, unit) in metrics.items():
        log(f'  {name} = {value:.6g} {unit}')
    print(json.dumps({
        'correct': failed == 0 and len(digests) == 1,
        'attempted': attempted,
        'failed': failed,
        'metrics': {name: {'value': value, 'unit': unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == '__main__':
    sys.exit(main())
