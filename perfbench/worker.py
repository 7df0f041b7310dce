"""One measured pass of a benchmark workload in a fresh interpreter.

Usage: python3 perfbench/worker.py --workload NAME --seed N [--no-check]
           [--trace]

Imports ncmotzkin from the `src/` directory next to `perfbench/`, builds
the workload's items from the seed, runs every item once with the
package's caches as a fresh process leaves them, and prints one JSON
object: the set-up end time, per-item latencies, failures with their
reproducers, the output digest, peak RSS and, when traced, the per-layer
counters. A traced pass writes its spans to `.perfbench-out/` under the
checkout.
"""

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
# the calibration work takes this long at the reference speed, about the
# usual speed of a 2-vCPU x86-64 cloud VM with Python 3.11
CALIBRATION_REF_S = 0.001
CALIBRATION_PERIOD_S = 0.1


def import_package():
    """Import ncmotzkin from this checkout's `src/`, never from elsewhere."""
    src = ROOT / 'src'
    if not (src / 'ncmotzkin' / '__init__.py').is_file():
        raise SystemExit(f'perfbench: no ncmotzkin sources under {src}')
    sys.path.insert(0, str(src))
    import ncmotzkin
    if Path(ncmotzkin.__file__).resolve().parent != src / 'ncmotzkin':
        raise SystemExit(f'perfbench: ncmotzkin was imported from '
                         f'{ncmotzkin.__file__}, not from {src}')


def canon(x, cm, rp):
    """Canonical exact text of a checked value, for the digest."""
    if isinstance(x, cm.Poly):
        return cm.format_poly(x)
    if isinstance(x, rp.BElement):
        return ' + '.join(f'{j}:({cm.format_poly(c)})'
                          for j, c in sorted(x.comp.items())) or '0'
    if isinstance(x, dict):
        return '{' + ', '.join(f'{canon(k, cm, rp)}: {canon(v, cm, rp)}'
                               for k, v in sorted(x.items())) + '}'
    if isinstance(x, list):
        return '[' + ', '.join(canon(v, cm, rp) for v in x) + ']'
    return str(x)


def _calibration_work():
    """A fixed slice of the interpreter work the package does most, in
    two halves: Fraction arithmetic and dict updates, as in the cumulant
    and replica algebra, and partitions built as sorted tuples of blocks,
    kept in a set and indexed by point, as in the lattice enumeration.
    Small calls of either kind slow down by different shares when other
    tenants load the machine, so one half alone tracks only its kind."""
    acc = {}
    x = Fraction(0)
    for i in range(1, 60):
        x += Fraction(i % 7 - 3, i % 5 + 1)
        key = tuple(sorted((i % 3, -i % 5, i % 11)))
        acc[key] = acc.get(key, 0) + x
    seen = set()
    for i in range(1, 45):
        pi = tuple(sorted(
            tuple(sorted({(i * j + b) % 9 + 1 for j in range(3)}))
            for b in range(3)))
        seen.add(pi)
        acc[pi] = {p: k for k, b in enumerate(pi) for p in b}
    return acc, seen


def calibrate():
    """Seconds the calibration work takes at the machine's current speed.
    The garbage collector is off meanwhile, so that a collection of the
    program's heap does not land inside it and read as a slower machine."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _calibration_work()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def run_pass(items, tracer=None, check=True):
    """Run every item once, in order: its set-up, then its call, which
    alone is timed, then, when `check`, its check; without it, an item
    fails only by raising. Returns a dict with the raw call
    latencies (`raw`), the call latencies scaled to the reference speed
    (`latencies`), the scaled seconds of whole items, set-up and check
    included (`item_s`), the digest and the failures as (item id,
    reproducer, error).

    The machine's speed can change by half within seconds (other tenants
    on shared cores), so the calibration work is timed before the first
    item and again whenever CALIBRATION_PERIOD_S has passed. The items
    between two calibrations, and the tracer's self times, are scaled by
    CALIBRATION_REF_S over the mean of the two timings.
    """
    from ncmotzkin import cumulants as cm, replicas as rp
    codes = {kind: [compile(part, f'{kind}.{phase}', 'exec')
                    for phase, part in zip(workloads.Kind._fields, parts)]
             for kind, parts in workloads.KINDS.items()}
    base = {}
    exec(workloads.PRELUDE, base)
    if tracer is None:
        def run(item_id, phase, code, ns):
            exec(code, ns)
    else:
        def run(item_id, phase, code, ns):
            tracer.run_item(item_id, phase, exec, code, ns)
    raw = []
    scaled = []
    item_s = 0.0
    texts = {}
    failures = []
    last_cal = calibrate()
    last_at = perf_counter()
    chunk = []
    chunk_item_s = 0.0

    def flush():
        nonlocal last_cal, last_at, item_s, chunk_item_s
        cal = calibrate()
        factor = CALIBRATION_REF_S / ((last_cal + cal) / 2)
        scaled.extend(lat * factor for lat in chunk)
        item_s += chunk_item_s * factor
        if tracer is not None:
            tracer.settle(factor)
        chunk.clear()
        chunk_item_s = 0.0
        last_cal, last_at = cal, perf_counter()

    for item in items:
        ns = dict(base)
        ns.update(item.args)
        setup, call, checker = codes[item.kind]
        error = None
        lat = 0.0
        t_start = perf_counter()
        try:
            run(item.id, 'setup', setup, ns)
            t0 = perf_counter()
            try:
                run(item.id, 'call', call, ns)
            finally:
                lat = perf_counter() - t0
            if check:
                run(item.id, 'check', checker, ns)
        except Exception as exc:  # an item that raises counts as failed
            error = f'{type(exc).__name__}: {exc}'
        chunk_item_s += perf_counter() - t_start
        raw.append(lat)
        chunk.append(lat)
        ok = error is None and (not check or ns.get('ok') is True)
        texts[item.id] = (canon(ns['got'], cm, rp) if ok
                          else f'FAILED {error or "check"}')
        if not ok:
            failures.append((item.id, workloads.reproducer(item),
                             error or 'check returned False'))
        if perf_counter() - last_at >= CALIBRATION_PERIOD_S:
            flush()
    flush()
    body = '\n'.join(f'{i}\t{texts[i]}' for i in sorted(texts))
    return {'raw': raw, 'latencies': scaled, 'item_s': item_s,
            'digest': hashlib.sha256(body.encode()).hexdigest()[:16],
            'failures': failures}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--workload', required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--no-check', dest='check', action='store_false',
                        help='run the calls only, not their checks')
    parser.add_argument('--trace', action='store_true')
    args = parser.parse_args(argv)
    import_package()
    items = workloads.build(args.workload, args.seed)
    ready = perf_counter()
    setup_cal = statistics.median(calibrate() for _ in range(5))
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        report = run_pass(items, tracer, args.check)
    finally:
        if tracer is not None:
            tracer.restore()
    report.update(
        ready=ready,
        setup_scale=CALIBRATION_REF_S / setup_cal,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        report['layers'] = tracer.summary()
        out_dir = ROOT / '.perfbench-out'
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(
            out_dir / f'{args.workload}-seed{args.seed}-spans.csv.gz')
    print(json.dumps(report))


if __name__ == '__main__':
    main()
