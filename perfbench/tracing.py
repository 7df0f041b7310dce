"""Per-layer tracing of ncmotzkin from outside the package.

The tracer replaces bindings in the loaded `ncmotzkin` modules with
wrappers and puts every original back on `restore()`. A function is
rebound under every module name that refers to it, so from-imported
copies (`replicas.moment_to_boolean`) and recursive calls through the
module global (`replicas.B_w_rep`) are seen too.

- Timed functions open a span: name, start, end, parent span and item.
  Self time is the span's duration minus the time its child spans cover,
  including the child wrappers' own bookkeeping. Self times are kept
  raw until `settle(factor)` scales them to the reference speed, as the
  worker does with the item latencies between two calibrations.
- The counters cover the whole of an item, its set-up, call and check,
  under root spans named after the phase; only the call is timed in
  the end-to-end figures.
- Counted functions and the arithmetic methods of `Poly` and `Rep` only
  increment a counter, so that their wrapper cost stays small next to
  the self times of the spans around them.
- `repeat_frac` is the share of calls whose argument value was seen
  before in the run; `Rep` arguments are keyed by their exact terms.
"""

import gzip
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _rep_key(x):
    return frozenset((k, frozenset(c.terms.items()))
                     for k, c in x.terms.items())


def _word_reps_key(w, args):
    return tuple(w), tuple(_rep_key(a) for a in args)


def _catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def _bell(n):
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def _arg(args, kwargs, pos, name, default):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


PACKAGE = 'ncmotzkin'
# (module, function) -> argument key for repeat_frac, or None
TIMED = {
    ('replicas', 'expectation'): lambda a, kw: _rep_key(a[0]),
    ('replicas', 'B_w_rep'): lambda a, kw: _word_reps_key(*a),
    ('replicas', 'K_w_rep'): lambda a, kw: _word_reps_key(*a),
    ('cumulants', 'transform'): None,
    ('cumulants', 'motzkin_k'): None,
    ('adapted', 'enumerate_adapted'):
        lambda a, kw: (tuple(a[0]), _arg(a, kw, 1, 'cls', 'all')),
    ('adapted', 'coarsening_closure'): None,
    ('partitions', 'noncrossing_partitions'): None,
    ('words', 'enumerate_words'): None,
    ('words', 'to_tableau'): None,
    ('convolution', 'boxplus_w_sym'): None,
    ('convolution', 'free_product_sym'): None,
    ('convolution', 'evaluate'): None,
}
COUNTED = [('adapted', 'is_adapted'), ('partitions', 'is_noncrossing'),
           ('partitions', 'nesting'), ('partitions', 'enumerate_partitions')]
METHODS = [('cumulants', 'Poly', '__mul__', 'mul'),
           ('cumulants', 'Poly', '__add__', 'add'),
           ('cumulants', 'Poly', '__init__', 'init'),
           ('replicas', 'Rep', '__mul__', 'mul')]
CACHED = [('cumulants', 'moment_to_free'), ('cumulants', 'moment_to_boolean')]
# filters whose waste is measured as kept_frac: (module, function) ->
# (counter, candidates the call filtered, or None when it filtered none)
FILTERS = {
    ('adapted', 'enumerate_adapted'):
        ('adapted.enumerate_adapted', lambda a, kw: _catalan(len(a[0]))),
    ('partitions', 'enumerate_partitions'):
        ('partitions.nc', lambda a, kw: _bell(a[0])
         if _arg(a, kw, 1, 'cls', 'all') == 'nc' else None),
}


def _span_name(mod, fn, args, kwargs):
    if fn == 'boxplus_w_sym':
        return f'{mod}.{fn}.{_arg(args, kwargs, 2, "route", "replica")}'
    return f'{mod}.{fn}'


class Tracer:
    """Spans and counters for one run; wrappers live between install()
    and restore()."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self._raw_self_s = defaultdict(float)
        self.seen = defaultdict(set)
        self.repeats = Counter()
        self.kept = Counter()
        self.candidates = Counter()
        self.spans = []
        self._stack = []
        self._next_id = 0
        self.item = None
        self._saved = []

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if name == PACKAGE or name.startswith(PACKAGE + '.')]

    def _module(self, short):
        return sys.modules[f'{PACKAGE}.{short}']

    def _rebind(self, original, wrapper):
        for module in self._modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, name, original))
                    setattr(module, name, wrapper)

    def install(self):
        for (mod, fn), key in TIMED.items():
            original = getattr(self._module(mod), fn)
            self._rebind(original, self._timed(
                mod, fn, original, key, FILTERS.get((mod, fn))))
        for mod, fn in COUNTED:
            original = getattr(self._module(mod), fn)
            self._rebind(original, self._counted(
                f'{mod}.{fn}', original, FILTERS.get((mod, fn))))
        for mod, cls_name, method, short in METHODS:
            cls = getattr(self._module(mod), cls_name)
            original = cls.__dict__[method]
            self._saved.append((cls, method, original))
            setattr(cls, method,
                    self._counted(f'{mod}.{cls_name}.{short}', original))

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _enter(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        return sid, parent, frame

    def _exit(self, name, sid, parent, frame, t0, t1):
        t2 = perf_counter()
        self._stack.pop()
        self._raw_self_s[name] += (t2 - t1) - frame[1]
        if self._stack:
            self._stack[-1][1] += t2 - t0
        self.spans.append((sid, name, t1, t2, parent, self.item))

    def run_item(self, item_id, phase, fn, *args):
        """Run one phase of a benchmark item under a root span named
        after the phase."""
        self.item = item_id
        t0 = perf_counter()
        sid, parent, frame = self._enter()
        try:
            return fn(*args)
        finally:
            self._exit(phase, sid, parent, frame, t0, t0)

    def settle(self, factor):
        """Add the self times gathered since the last call, scaled by
        `factor`, to `self_s`."""
        for name, seconds in self._raw_self_s.items():
            self.self_s[name] += seconds * factor
        self._raw_self_s.clear()

    def _filtered(self, kept, args, kwargs, result):
        name, candidates = kept
        n = candidates(args, kwargs)
        if n is not None:
            self.kept[name] += len(result)
            self.candidates[name] += n

    def _timed(self, mod, fn, original, key, kept=None):
        tracer = self
        counted = f'{mod}.{fn}'

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            name = _span_name(mod, fn, args, kwargs)
            tracer.calls[counted] += 1
            if key is not None:
                k = key(args, kwargs)
                seen = tracer.seen[counted]
                if k in seen:
                    tracer.repeats[counted] += 1
                else:
                    seen.add(k)
            sid, parent, frame = tracer._enter()
            t1 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(name, sid, parent, frame, t0, t1)
            if kept is not None:
                tracer._filtered(kept, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, original, kept=None):
        calls = self.calls
        if kept is None:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        def filter_wrapper(*args, **kwargs):
            calls[name] += 1
            result = original(*args, **kwargs)
            self._filtered(kept, args, kwargs, result)
            return result
        return filter_wrapper

    def write_spans(self, path):
        with gzip.open(path, 'wt') as f:
            f.write('id,name,start,end,parent,item\n')
            for sid, name, t1, t2, parent, item in self.spans:
                f.write(f'{sid},{name},{t1:.9f},{t2:.9f},'
                        f'{"" if parent is None else parent},{item}\n')

    def summary(self):
        """Counters of the run as plain data."""
        return {'calls': dict(self.calls), 'self_s': dict(self.self_s),
                'repeats': dict(self.repeats), 'kept': dict(self.kept),
                'candidates': dict(self.candidates),
                'hit_frac': self.cache_hit_fracs()}

    def cache_hit_fracs(self):
        out = {}
        for mod, fn in CACHED:
            info = getattr(self._module(mod), fn).cache_info()
            total = info.hits + info.misses
            out[f'{mod}.{fn}'] = info.hits / total if total else 0.0
        return out


def _frac(num, den):
    return num / den if den else 0.0


def layer_metrics(summary, overhead_frac):
    """The per-layer metrics of one traced pass, by name: (value, unit),
    from a `Tracer.summary()`."""
    calls, self_s = Counter(summary['calls']), summary['self_s']
    repeats, kept = summary['repeats'], summary['kept']
    candidates = summary['candidates']
    out = {}
    for name in ('replicas.expectation', 'replicas.B_w_rep',
                 'replicas.K_w_rep', 'adapted.enumerate_adapted'):
        out[f'{name}.calls'] = (calls[name], 'count')
        out[f'{name}.self_s'] = (self_s.get(name, 0.0), 's')
        out[f'{name}.repeat_frac'] = (
            _frac(repeats.get(name, 0), calls[name]), 'ratio')
    for name in ('replicas.Rep.mul', 'cumulants.Poly.mul',
                 'cumulants.Poly.add', 'cumulants.Poly.init',
                 'adapted.is_adapted', 'partitions.noncrossing_partitions',
                 'partitions.is_noncrossing', 'partitions.nesting'):
        out[f'{name}.calls'] = (calls[name], 'count')
    for name in ('cumulants.transform', 'cumulants.motzkin_k',
                 'adapted.coarsening_closure',
                 'partitions.noncrossing_partitions',
                 'words.enumerate_words', 'words.to_tableau',
                 'convolution.boxplus_w_sym.replica',
                 'convolution.boxplus_w_sym.monotone',
                 'convolution.boxplus_w_sym.nested',
                 'convolution.free_product_sym', 'convolution.evaluate'):
        out[f'{name}.self_s'] = (self_s.get(name, 0.0), 's')
    for name, frac in summary['hit_frac'].items():
        out[f'{name}.hit_frac'] = (frac, 'ratio')
    for name in ('adapted.enumerate_adapted', 'partitions.nc'):
        out[f'{name}.kept_frac'] = (
            _frac(kept.get(name, 0), candidates.get(name, 0)), 'ratio')
    out['trace.overhead_frac'] = (overhead_frac, 'ratio')
    return out
