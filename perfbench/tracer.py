"""Spans around every public curverig function, installed from outside.

`Tracer.install()` replaces each public function of the layer modules with
a wrapper that records a span (id, parent id, name, start, end, command id)
and puts the original back on `uninstall()`.  A function is replaced in its
defining module and in every curverig module that imported it by name
(`elekes` holds its own `sylvester_resultant`, `cli` its own
`admissibility_scan`), and methods are replaced on their class.  Spans stay
in memory; `layer_metrics()` turns them into per-layer calls, self time and
the counters read off return values.

Each thread appends its spans to its own flat array of doubles, six per
span, so a run of a few million spans stays near 50 bytes a span.

Self time of a span is its duration minus the part of it that its child
spans cover.  Work that `parallel_chunked` hands to pool threads is traced
as child spans of the parallel call, named after the function that called
it, so its self time is booked to that function's layer.  Pool threads
overlap in wall time (and wait for each other on the interpreter lock), so
with pooled work the layers' self times add up to more than the wall time.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
import tracemalloc
from array import array
from collections import Counter
from fractions import Fraction

import numpy as np

LAYERS = ("cli", "counting", "rational", "curves", "quantity", "bipoly",
          "elekes", "rigidity", "motion", "parallel")

# Private functions that carry a stage named in the per-layer metrics.
_PRIVATE = {("rigidity", "_h_over_grid")}  # the vectorized H grid

_CHUNK = "#chunk"  # suffix of pool-thread spans booked to the calling function


def _exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs.get(name)


def _flex_name(args, kwargs) -> str:
    exact = _arg(args, kwargs, 1, "exact")
    if exact is None:
        exact = _arg(args, kwargs, 0, "fw").is_exact()
    return "rigidity.flexibility_matrix" + (".exact" if exact else "")


class Tracer:
    def __init__(self):
        self.names: list = []          # span name of each name id
        self._name_ids: dict = {}
        self._buffers: list = []       # per thread: sid, parent, name id, t0, t1, cmd
        self.counts: Counter = Counter()
        self.simplicity_peak_mb = 0.0
        self.cmd = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []          # (owner, attr, original)
        self._snapshot: dict = {}

    # -- recording ---------------------------------------------------------

    def add(self, key: str, value=1) -> None:
        with self._lock:
            self.counts[key] += value

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._name_ids.setdefault(name, len(self.names))
                if nid == len(self.names):
                    self.names.append(name)
        return nid

    def _stack(self) -> list:
        """This thread's open spans as (sid, name); (0, "") is the root."""
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = [(0, "")]
            return self._local.stack

    def _buffer(self) -> array:
        try:
            return self._local.buffer
        except AttributeError:
            self._local.buffer = array("d")
            with self._lock:
                self._buffers.append(self._local.buffer)
            return self._local.buffer

    def _wrap(self, fn, name, namer=None, post=None):
        stack_of, buffer_of, ids = self._stack, self._buffer, self._ids
        perf, tracer, name_id = time.perf_counter, self, self.name_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = namer(args, kwargs) if namer else name
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1][0]
            stack.append((sid, span))
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.add(span + ".errors")
                raise
            finally:
                t1 = perf()
                stack.pop()
                buffer_of().extend((sid, parent, name_id(span), t0, t1, tracer.cmd))
            if post is not None:
                post(tracer, result)
            return result
        return wrapper

    # -- special cases -------------------------------------------------------

    def _parallel(self, fn):
        """parallel_chunked with its worker traced in whichever thread runs it."""
        tracer = self

        def parallel_chunked(worker, n_items, threads=1, chunk_size=64):
            stack = tracer._stack()
            own_sid = stack[-1][0]
            chunk_name = stack[-2][1] + _CHUNK if len(stack) > 1 else "parallel" + _CHUNK
            caller = threading.get_ident()
            pooled = []
            chunk_span = tracer._wrap(worker, chunk_name)

            def chunk(a, b):
                tracer.add("parallel.chunks")
                if threading.get_ident() != caller:  # a pool thread
                    pooled.append(True)
                    tracer._local.stack = [(own_sid, "parallel.parallel_chunked")]
                return chunk_span(a, b)

            t0 = time.perf_counter()
            result = fn(chunk, n_items, threads, chunk_size)
            if pooled:
                tracer.add("parallel.pooled_s", time.perf_counter() - t0)
            return result
        return functools.wraps(fn)(parallel_chunked)

    def _check_simplicity(self, fn):
        """check_simplicity under tracemalloc: its peak traced memory."""
        tracer = self

        def check_simplicity(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                tracemalloc.stop()
                tracer.simplicity_peak_mb = max(tracer.simplicity_peak_mb, peak)
        return functools.wraps(fn)(check_simplicity)

    def _arc_length_post(self, tracer, sigma):
        # each evaluator call of the unit-speed curve inverts s -> t once
        sigma.evaluator = self._wrap(sigma.evaluator, "curves.arc_length.invert")

    def _special(self, name):
        """(namer, post, inner) overrides for one span name."""
        add = Tracer.add
        table = {
            "rational.Poly.__call__": dict(namer=lambda a, k: (
                "rational.poly_eval_exact" if _exact(_arg(a, k, 1, "t"))
                else "rational.poly_eval_float")),
            "curves.RationalCurve.evaluate": dict(namer=lambda a, k: (
                "curves.evaluate_exact" if _exact(_arg(a, k, 1, "t"))
                else "curves.RationalCurve.evaluate")),
            "rigidity.flexibility_matrix": dict(namer=_flex_name),
            "elekes.intersect_elekes_pair": dict(post=lambda t, r: (
                add(t, "elekes.newton_seeds", r.n_seeds),
                add(t, "elekes.newton_converged", r.n_converged))),
            "elekes.same_algebraic_curve": dict(post=lambda t, r: (
                add(t, "elekes.fingerprint.calls", int(r[1] == "fingerprint")))),
            "elekes.verify_incidence_invariant": dict(post=lambda t, r: (
                add(t, "elekes.incidence.checks", r.checked))),
            "counting.count_distinct_values": dict(post=lambda t, r: (
                add(t, "counting.pairs", r.n_pairs))),
            "rigidity.scan_T_degeneracy": dict(post=lambda t, r: (
                add(t, "rigidity.pairs_scanned", r.pairs_scanned))),
            "motion.trace_framework_motion": dict(post=lambda t, r: (
                add(t, "motion.steps", r.steps_completed),
                add(t, "motion.newton_iterations", r.newton_iterations),
                add(t, "motion.newton_failures", r.newton_failures))),
            "curves.arc_length_reparametrize": dict(post=self._arc_length_post),
            "parallel.parallel_chunked": dict(inner=self._parallel),
            "curves.check_simplicity": dict(inner=self._check_simplicity),
        }
        return table.get(name, {})

    def _wrapped(self, fn, name):
        spec = self._special(name)
        if "inner" in spec:
            fn = spec["inner"](fn)
        return self._wrap(fn, name, spec.get("namer"), spec.get("post"))

    # -- install / uninstall ------------------------------------------------

    def _set(self, owner, attr, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._wrapped(raw.__func__, name)))
            elif isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrapped(raw.__func__, name)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrapped(raw, name))

    @staticmethod
    def _package_modules() -> list:
        return [m for n, m in sorted(sys.modules.items())
                if (n == "curverig" or n.startswith("curverig.")) and m is not None]

    def install(self) -> None:
        mods = self._package_modules()
        self._snapshot = {m: dict(vars(m)) for m in mods}
        for m in mods:
            for obj in vars(m).values():
                if inspect.isclass(obj) and obj.__module__ == m.__name__:
                    self._snapshot[obj] = dict(vars(obj))
        replaced = {}
        for layer in LAYERS:
            mod = sys.modules[f"curverig.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") and (layer, attr) not in _PRIVATE:
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self._wrapped(obj, f"{layer}.{attr}"))
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for m in mods:
            for attr, obj in list(vars(m).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(m, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def restored_problems(self) -> list:
        """Attributes that are not the object they were before install()."""
        out = []
        code = (staticmethod, classmethod)
        for owner, before in self._snapshot.items():
            now = vars(owner)
            for attr, obj in before.items():
                if now.get(attr) is not obj and (callable(obj) or isinstance(obj, code)):
                    out.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return out

    # -- aggregation -----------------------------------------------------------

    def span_table(self) -> np.ndarray:
        """All spans as rows (sid, parent, name id, t0, t1, cmd)."""
        parts = [np.frombuffer(b, dtype=np.float64) for b in self._buffers]
        flat = np.concatenate(parts) if parts else np.zeros(0)
        return flat.reshape(-1, 6)

    def aggregate(self) -> dict:
        """calls, self time, and outermost inclusive time per span name."""
        table = self.span_table()
        n = len(table)
        sid = table[:, 0].astype(np.int64)
        row_of = np.full(int(sid.max()) + 1 if n else 1, -1, dtype=np.int64)
        row_of[sid] = np.arange(n)
        parent = row_of[table[:, 1].astype(np.int64)]  # -1 for roots
        name = table[:, 2].astype(np.int64)
        t0, t1 = table[:, 3], table[:, 4]
        dur = t1 - t0
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=n)
        # children of a pooled parallel call overlap: take their union instead
        par = self._name_ids.get("parallel.parallel_chunked")
        for row in np.flatnonzero(name == par) if par is not None else ():
            kids = np.flatnonzero(parent == row)
            covered[row] = _covered(zip(t0[kids], t1[kids]), t0[row], t1[row])
        self_t = dur - covered

        calls, self_s, incl = Counter(), Counter(), Counter()
        n_calls = np.bincount(name, minlength=len(self.names))
        n_self = np.bincount(name, weights=self_t, minlength=len(self.names))
        nested = _nested_in_same_name(parent, name)
        n_incl = np.bincount(name[~nested], weights=dur[~nested], minlength=len(self.names))
        for nid, full in enumerate(self.names):
            base = full[:-len(_CHUNK)] if full.endswith(_CHUNK) else full
            if not full.endswith(_CHUNK):
                calls[base] += int(n_calls[nid])
            self_s[base] += float(n_self[nid])
            if base in _INCLUSIVE and not full.endswith(_CHUNK):
                incl[base] += float(n_incl[nid])
        return {"calls": calls, "self_s": self_s, "incl": incl,
                "exact_share": self._exact_eval_share(parent, name, dur, nested),
                "root_s": float(dur[~child].sum())}

    def _exact_eval_share(self, parent, name, dur, nested) -> float:
        """Share of intersect_elekes_pair time in exact base-point evaluation:
        the outermost exact evaluations below the intersector."""
        ids = {self._name_ids.get(k) for k in _EXACT_EVAL} - {None}
        pair = self._name_ids.get("elekes.intersect_elekes_pair")
        if pair is None:
            return 0.0
        total = float(dur[(name == pair) & ~nested].sum())
        rows = np.flatnonzero(np.isin(name, list(ids)))
        stop = _first_ancestor_in(parent, name, rows, ids | {pair})
        exact = float(dur[rows[stop == pair]].sum())
        return exact / total if total else 0.0


_EXACT_EVAL = {"curves.evaluate_exact", "rational.poly_eval_exact"}

# span names whose outermost inclusive time feeds a metric
_INCLUSIVE = {
    "elekes.same_algebraic_curve", "elekes.implicitize_rational",
    "elekes.verify_incidence_invariant", "elekes.admissibility_scan",
    "rational.count_real_roots", "curves.arc_length_reparametrize",
    "curves.arc_length.invert", "curves.check_simplicity",
    "counting.generate_point_set", "bipoly.sylvester_resultant",
    "bipoly.square_free_part", "rigidity.scan_T_degeneracy",
    "rigidity.infinitesimal_nullity", "rigidity.flexibility_matrix.exact",
    "motion.trace_framework_motion", "motion.derivative_norm_profile"}


def _covered(intervals, lo, hi) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _nested_in_same_name(parent, name) -> np.ndarray:
    """Per span: has an ancestor of its own name (pointer jumping)."""
    nested = np.zeros(len(name), dtype=bool)
    anc = parent.copy()
    while True:
        live = np.flatnonzero(anc >= 0)
        if not live.size:
            return nested
        nested[live] |= name[anc[live]] == name[live]
        anc[live] = parent[anc[live]]


def _first_ancestor_in(parent, name, rows, ids) -> np.ndarray:
    """Name id of the nearest ancestor of each row whose name is in ids,
    or -1."""
    ids = np.array(sorted(ids))
    found = np.full(len(rows), -1, dtype=np.int64)
    anc = parent[rows].copy()
    while True:
        live = np.flatnonzero((anc >= 0) & (found < 0))
        if not live.size:
            return found
        hit = np.isin(name[anc[live]], ids)
        found[live[hit]] = name[anc[live[hit]]]
        anc[live] = parent[anc[live]]


# -- per-layer metrics ------------------------------------------------------------

# (metric name, unit), in report order
PER_LAYER = [
    ("elekes.intersect_pair.calls", "count"), ("elekes.intersect_pair.self_s", "s"),
    ("elekes.intersect_pair.exact_eval_share", "ratio"),
    ("elekes.eval_batch.calls", "count"), ("elekes.tangent_batch.calls", "count"),
    ("elekes.newton_seeds", "count"), ("elekes.newton_converged", "count"),
    ("elekes.converged_ratio", "ratio"),
    ("elekes.same_curve.calls", "count"), ("elekes.same_curve.s", "s"),
    ("elekes.fingerprint.calls", "count"),
    ("elekes.implicitize.calls", "count"), ("elekes.implicitize.s", "s"),
    ("elekes.incidence.checks", "count"), ("elekes.incidence.s", "s"),
    ("elekes.admissibility.s", "s"), ("elekes.runtime_warnings", "count"),
    ("rational.poly_eval_exact.calls", "count"), ("rational.poly_eval_exact.self_s", "s"),
    ("rational.poly_eval_float.calls", "count"), ("rational.poly_eval_float.self_s", "s"),
    ("rational.float_coeffs.calls", "count"),
    ("rational.count_real_roots.calls", "count"), ("rational.count_real_roots.s", "s"),
    ("curves.evaluate_exact.calls", "count"), ("curves.evaluate_exact.self_s", "s"),
    ("curves.derivative_array.calls", "count"), ("curves.derivative_array.self_s", "s"),
    ("curves.arc_length.s", "s"), ("curves.arc_length.inversions", "count"),
    ("curves.check_simplicity.s", "s"), ("curves.check_simplicity.peak_mb", "MB"),
    ("quantity.eval.calls", "count"), ("quantity.eval.self_s", "s"),
    ("quantity.eval_batch.calls", "count"), ("quantity.eval_batch.self_s", "s"),
    ("quantity.grad_batch.calls", "count"), ("quantity.grad_batch.self_s", "s"),
    ("counting.count_distinct_values.calls", "count"),
    ("counting.count_distinct_values.self_s", "s"),
    ("counting.pairs", "count"), ("counting.generate_point_set.s", "s"),
    ("bipoly.sylvester_resultant.calls", "count"), ("bipoly.sylvester_resultant.s", "s"),
    ("bipoly.square_free_part.calls", "count"), ("bipoly.square_free_part.s", "s"),
    ("rigidity.scan_T.s", "s"), ("rigidity.pairs_scanned", "count"),
    ("rigidity.eval_H.calls", "count"), ("rigidity.nullity.s", "s"),
    ("rigidity.flex_matrix_exact.s", "s"),
    ("motion.trace.s", "s"), ("motion.steps", "count"),
    ("motion.newton_iterations", "count"), ("motion.newton_failures", "count"),
    ("motion.profile.s", "s"), ("motion.profile.failures", "count"),
    ("parallel.calls", "count"), ("parallel.chunks", "count"),
    ("parallel.pooled_s", "s")] + [
    (f"{layer}.self_s", "s") for layer in LAYERS] + [
    ("trace.overhead_ratio", "ratio"), ("trace.unattributed_s", "s")]


def _suffix(table, layer, suffix):
    return sum(v for k, v in table.items()
               if k.startswith(layer + ".") and k.endswith(suffix))


def layer_metrics(tracer: Tracer, traced_wall: float, warnings_by_layer: dict) -> dict:
    """Every PER_LAYER metric except trace.overhead_ratio, which needs the
    untraced run."""
    agg = tracer.aggregate()
    calls, self_s, incl, cnt = agg["calls"], agg["self_s"], agg["incl"], tracer.counts
    seeds = cnt["elekes.newton_seeds"]
    v = {
        "elekes.intersect_pair.calls": calls["elekes.intersect_elekes_pair"],
        "elekes.intersect_pair.self_s": self_s["elekes.intersect_elekes_pair"],
        "elekes.intersect_pair.exact_eval_share": agg["exact_share"],
        "elekes.eval_batch.calls": calls["elekes.ElekesCurve.eval_batch"],
        "elekes.tangent_batch.calls": calls["elekes.ElekesCurve.tangent_batch"],
        "elekes.newton_seeds": seeds,
        "elekes.newton_converged": cnt["elekes.newton_converged"],
        "elekes.converged_ratio": cnt["elekes.newton_converged"] / seeds if seeds else 0.0,
        "elekes.same_curve.calls": calls["elekes.same_algebraic_curve"],
        "elekes.same_curve.s": incl["elekes.same_algebraic_curve"],
        "elekes.fingerprint.calls": cnt["elekes.fingerprint.calls"],
        "elekes.implicitize.calls": calls["elekes.implicitize_rational"],
        "elekes.implicitize.s": incl["elekes.implicitize_rational"],
        "elekes.incidence.checks": cnt["elekes.incidence.checks"],
        "elekes.incidence.s": incl["elekes.verify_incidence_invariant"],
        "elekes.admissibility.s": incl["elekes.admissibility_scan"],
        "elekes.runtime_warnings": warnings_by_layer.get("elekes", 0),
        "rational.poly_eval_exact.calls": calls["rational.poly_eval_exact"],
        "rational.poly_eval_exact.self_s": self_s["rational.poly_eval_exact"],
        "rational.poly_eval_float.calls": calls["rational.poly_eval_float"],
        "rational.poly_eval_float.self_s": self_s["rational.poly_eval_float"],
        "rational.float_coeffs.calls": calls["rational.Poly.float_coeffs"],
        "rational.count_real_roots.calls": calls["rational.count_real_roots"],
        "rational.count_real_roots.s": incl["rational.count_real_roots"],
        "curves.evaluate_exact.calls": calls["curves.evaluate_exact"],
        "curves.evaluate_exact.self_s": self_s["curves.evaluate_exact"],
        "curves.derivative_array.calls": _suffix(calls, "curves", ".derivative_array"),
        "curves.derivative_array.self_s": _suffix(self_s, "curves", ".derivative_array"),
        "curves.arc_length.s": (incl["curves.arc_length_reparametrize"]
                                + incl["curves.arc_length.invert"]),
        "curves.arc_length.inversions": calls["curves.arc_length.invert"],
        "curves.check_simplicity.s": incl["curves.check_simplicity"],
        "curves.check_simplicity.peak_mb": tracer.simplicity_peak_mb,
        "quantity.eval.calls": (_suffix(calls, "quantity", ".eval")
                                + calls["quantity.eval_quantity"]),
        "quantity.eval.self_s": (_suffix(self_s, "quantity", ".eval")
                                 + self_s["quantity.eval_quantity"]),
        "quantity.eval_batch.calls": _suffix(calls, "quantity", ".eval_batch"),
        "quantity.eval_batch.self_s": _suffix(self_s, "quantity", ".eval_batch"),
        "quantity.grad_batch.calls": _suffix(calls, "quantity", ".grad_batch"),
        "quantity.grad_batch.self_s": _suffix(self_s, "quantity", ".grad_batch"),
        "counting.count_distinct_values.calls": calls["counting.count_distinct_values"],
        "counting.count_distinct_values.self_s": self_s["counting.count_distinct_values"],
        "counting.pairs": cnt["counting.pairs"],
        "counting.generate_point_set.s": incl["counting.generate_point_set"],
        "bipoly.sylvester_resultant.calls": calls["bipoly.sylvester_resultant"],
        "bipoly.sylvester_resultant.s": incl["bipoly.sylvester_resultant"],
        "bipoly.square_free_part.calls": calls["bipoly.square_free_part"],
        "bipoly.square_free_part.s": incl["bipoly.square_free_part"],
        "rigidity.scan_T.s": incl["rigidity.scan_T_degeneracy"],
        "rigidity.pairs_scanned": cnt["rigidity.pairs_scanned"],
        "rigidity.eval_H.calls": calls["rigidity.eval_H"] + calls["rigidity._h_over_grid"],
        "rigidity.nullity.s": incl["rigidity.infinitesimal_nullity"],
        "rigidity.flex_matrix_exact.s": incl["rigidity.flexibility_matrix.exact"],
        "motion.trace.s": incl["motion.trace_framework_motion"],
        "motion.steps": cnt["motion.steps"],
        "motion.newton_iterations": cnt["motion.newton_iterations"],
        "motion.newton_failures": cnt["motion.newton_failures"],
        "motion.profile.s": incl["motion.derivative_norm_profile"],
        "motion.profile.failures": cnt["motion.derivative_norm_profile.errors"],
        "parallel.calls": calls["parallel.parallel_chunked"],
        "parallel.chunks": cnt["parallel.chunks"],
        "parallel.pooled_s": cnt["parallel.pooled_s"],
        "trace.unattributed_s": max(0.0, traced_wall - agg["root_s"]),
    }
    for layer in LAYERS:
        v[f"{layer}.self_s"] = sum(t for k, t in self_s.items()
                                   if k.startswith(layer + "."))
    return v
