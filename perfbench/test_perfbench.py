"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import gc
import json
import subprocess
import sys

import pytest

import tracing
import worker
import workloads

worker.import_package()

from ncmotzkin import cumulants, replicas  # noqa: E402


@pytest.mark.parametrize('workload', workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload):
    assert workloads.build(workload, 7) == workloads.build(workload, 7)
    assert workloads.build(workload, 7) != workloads.build(workload, 8)
    items = workloads.build(workload, 7)
    assert len(items) >= 1000
    assert sorted(item.id for item in items) == list(range(len(items)))


def _bindings():
    out = {}
    for module in tracing.Tracer()._modules():
        for name, value in vars(module).items():
            out[(module.__name__, name)] = value
    for cls in (cumulants.Poly, replicas.Rep):
        for name, value in vars(cls).items():
            out[(cls.__qualname__, name)] = value
    return out


def test_tracer_restores_every_binding():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _bindings()
        for key in [('ncmotzkin.replicas', 'B_w_rep'),
                    ('ncmotzkin.convolution', 'evaluate'),
                    ('ncmotzkin.partitions', 'is_noncrossing'),
                    ('Poly', '__mul__'), ('Rep', '__mul__')]:
            assert during[key] is not before[key]
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize('workload', workloads.WORKLOADS)
def test_tiny_run_passes_and_tracing_changes_no_result(workload):
    items = workloads.build(workload, 0, tiny=True)
    plain = worker.run_pass(items)
    assert plain['failures'] == []
    assert len(plain['raw']) == len(plain['latencies']) == len(items)
    assert plain['item_s'] > 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = worker.run_pass(items, tracer)
    finally:
        tracer.restore()
    assert traced['failures'] == []
    assert traced['digest'] == plain['digest']
    assert worker.run_pass(items, check=False)['digest'] == plain['digest']
    metrics = tracing.layer_metrics(tracer.summary(), 0.0)
    assert all(value >= 0 for value, _unit in metrics.values())
    assert {sid for sid, *_ in tracer.spans} == set(range(len(tracer.spans)))
    roots = {name for _sid, name, _t1, _t2, parent, _item in tracer.spans
             if parent is None}
    assert roots == {'setup', 'call', 'check'}


def test_calibration_keeps_the_collector_state():
    assert gc.isenabled()
    worker.calibrate()
    assert gc.isenabled()
    gc.disable()
    try:
        worker.calibrate()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_reproducer_reruns_the_item():
    item = next(i for i in workloads.build('replica-lemmas', 0, tiny=True)
                if i.kind == 'K_closed_form')
    proc = subprocess.run(workloads.reproducer(item), shell=True,
                          cwd=worker.ROOT, capture_output=True, text=True,
                          timeout=60)
    assert proc.stdout.strip() == 'True', proc.stderr


def test_metric_names_match_benchmark_json():
    spec = json.loads((worker.ROOT / 'BENCHMARK.json').read_text())
    tracer = tracing.Tracer()
    layer_names = set(tracing.layer_metrics(tracer.summary(), 0.0))
    assert layer_names == {m['name'] for m in spec['per_layer']}
    assert [w['name'] for w in spec['workloads']] == list(
        workloads.WORKLOADS)


def test_run_refuses_a_tree_without_sources(tmp_path):
    bench = tmp_path / 'perfbench'
    bench.mkdir()
    for path in worker.ROOT.joinpath('perfbench').glob('*.py'):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / 'run.py'), '--workload', 'convolve',
         '--seed', '1', '--seconds', '1', '--trace', '0'],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ''
