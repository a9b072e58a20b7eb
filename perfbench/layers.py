"""Layer probes: which program functions the traced run wraps, and the
per-layer metrics computed from what the wrappers saw.

Each wrapper is installed on the attribute through which callers reach the
function (``repro.core.msri.mfs``, not ``repro.core.mfs.mfs``; a method on
its class).  Time metrics are self time per workload operation, so the rows
of :data:`ROWS` plus ``trace.other_s`` add up to ``trace.whole_s`` (the
traced wall-clock; CPU time in the serve daemon) divided by the operation
count.  Counts come from
the wrapper hooks and from the program's own ``repro.obs`` counters, which
are read, never added to; :func:`cross_checks` compares the two.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict
from typing import Dict, List, Tuple

from harness import Tracer

#: self-time rows: metric name -> tracer layers it sums
ROWS: Dict[str, Tuple[str, ...]] = {
    "msri.build_s": ("msri",),
    "prune.prefilter_s": ("prune.prefilter",),
    "prune.mfs_s": ("prune.mfs",),
    "pwl.self_s": ("pwl",),
    "intervals.self_s": ("intervals",),
    "cache.signature_s": ("cache.signature",),
    "cache.pack_s": ("cache.pack",),
    "cache.unpack_s": ("cache.unpack",),
    "cache.store_s": ("cache.store",),
    "eco.engine_s": ("eco",),
    "synth.self_s": ("synth",),
    "incr.edit_s": ("incr.edit",),
    "incr.evaluate_s": ("incr.evaluate",),
    "flat.compile_s": ("flat.compile",),
    "flat.kernel_s": ("flat.kernel",),
    "flat.key_s": ("flat.key",),
    "flat.batch_s": ("flat.batch",),
    "codec.decode_s": ("codec.decode",),
    "codec.encode_s": ("codec.encode",),
    "codec.tree_decode_s": ("codec.tree_decode",),
    "serve.dispatch_s": ("serve",),
}

#: (metric, unit) for every per-layer metric, in report order
METRICS: List[Tuple[str, str]] = [
    ("msri.build_s", "s/op"),
    ("msri.nodes", "count/op"),
    ("msri.solutions.generated", "count/op"),
    ("prune.prefilter_s", "s/op"),
    ("prune.mfs_s", "s/op"),
    ("prune.kept_ratio", "ratio"),
    ("prune.prefilter_drop_ratio", "ratio"),
    ("pwl.calls", "count/op"),
    ("pwl.self_s", "s/op"),
    ("intervals.calls", "count/op"),
    ("intervals.self_s", "s/op"),
    ("cache.signature_s", "s/op"),
    ("cache.pack_s", "s/op"),
    ("cache.unpack_s", "s/op"),
    ("cache.store_s", "s/op"),
    ("cache.lookups", "count/op"),
    ("cache.hit_ratio", "ratio"),
    ("cache.nodes_reused_ratio", "ratio"),
    ("eco.engine_s", "s/op"),
    ("eco.dirty_nodes", "count"),
    ("eco.flush_share", "ratio"),
    ("synth.self_s", "s/op"),
    ("synth.evaluations", "count"),
    ("synth.memo_hits", "count"),
    ("incr.edit_s", "s/op"),
    ("incr.evaluate_s", "s/op"),
    ("incr.rebuild_share", "ratio"),
    ("flat.compile_s", "s/op"),
    ("flat.kernel_s", "s/op"),
    ("flat.key_s", "s/op"),
    ("flat.batch_s", "s/op"),
    ("flat.cache.hit_ratio", "ratio"),
    ("flat.numpy_share", "ratio"),
    ("codec.decode_s", "s/op"),
    ("codec.encode_s", "s/op"),
    ("codec.tree_decode_s", "s/op"),
    ("codec.bytes_in", "B/op"),
    ("codec.bytes_out", "B/op"),
    ("serve.dispatch_s", "s/op"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.batch_wait_ms", "ms"),
    ("serve.batch_nets", "count"),
    ("netgen.s", "s"),
    ("trace.other_s", "s/op"),
    ("trace.whole_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.ops", "count"),
]

_EDIT_METHODS = ("set_assignment", "set_terminal", "set_wire_width",
                 "set_wire_scale", "reroot")
_REBUILD_METHODS = ("set_wire_scale", "reroot")


def _public_methods(cls) -> List[str]:
    return [
        name
        for name, raw in vars(cls).items()
        if not name.startswith("_")
        and (
            inspect.isfunction(raw)
            or isinstance(raw, (classmethod, staticmethod))
        )
    ]


class LayerProbe:
    """Installs every layer wrapper and turns what they saw into metrics."""

    def __init__(self, clock=time.perf_counter):
        self.tracer = Tracer(clock)
        self.counts: Dict[str, float] = defaultdict(float)
        self.waits: Dict[str, List[float]] = defaultdict(list)
        self._decoded_at: Dict[int, float] = {}

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        mod = importlib.import_module
        msri = mod("repro.core.msri")
        engine = mod("repro.core.msri_engine")
        cache = mod("repro.core.msri_cache")
        pwl = mod("repro.core.pwl")
        intervals = mod("repro.core.intervals")
        topo = mod("repro.steiner.topology_search")
        incr = mod("repro.rctree.incremental")
        flat = mod("repro.rctree.flat")
        batch = mod("repro.analysis.batch")
        server = mod("repro.serve.server")
        session = mod("repro.serve.session")
        netgen = mod("repro.netgen")
        p = self.tracer.patch
        c = self.counts

        def raw_set_hook(args, kwargs, result, token):
            c["raw_sets"] += 1
            c["generated"] += len(result)

        for owner in (msri, engine):
            p(owner, "_raw_set", "msri", raw_set_hook)
            p(owner, "_root_set", "msri")
        p(msri, "insert_repeaters", "msri")

        def prefilter_hook(args, kwargs, result, token):
            c["prefilter_in"] += len(args[0])
            c["prefilter_out"] += len(result)

        def mfs_hook(args, kwargs, result, token):
            c["mfs_in"] += len(args[0])
            c["mfs_out"] += len(result)

        p(msri, "prefilter_front", "prune.prefilter", prefilter_hook)
        p(msri, "mfs", "prune.mfs", mfs_hook)
        p(msri, "mfs_pairwise", "prune.mfs", mfs_hook)

        for name in _public_methods(pwl.PWL):
            p(pwl.PWL, name, "pwl")
        for cls in (intervals.IntervalSet, intervals.Interval):
            for name in _public_methods(cls):
                p(cls, name, "intervals")

        def get_hook(args, kwargs, result, token):
            c["cache_lookups"] += 1
            c["cache_hits"] += result is not None

        p(engine, "subtree_signatures", "cache.signature")
        p(engine, "front_key", "cache.signature")
        p(engine, "pack_front", "cache.pack")
        p(engine, "unpack_front", "cache.unpack")
        p(cache.MSRICache, "get", "cache.store", get_hook)
        p(cache.MSRICache, "put", "cache.store")

        # a re-solve is a solve on an engine that has solved before; it
        # flushed every retained front when the domain bound c_max moved
        def solve_before(args, kwargs):
            return args[0]._c_max

        def solve_hook(args, kwargs, result, token):
            if token is None:
                return
            c["resolves"] += 1
            c["resolve_dirty_nodes"] += result.stats.nodes_processed
            c["flushes"] += token != args[0]._c_max

        p(engine.IncrementalMSRI, "solve", "eco", solve_hook, solve_before)
        for name in ("__init__", "set_terminal", "set_edge_length",
                     "set_wire_width", "solve_tree"):
            p(engine.IncrementalMSRI, name, "eco")
        p(engine, "insert_repeaters_cached", "eco")

        def synth_hook(args, kwargs, result, token):
            c["synth_calls"] += 1
            c["synth_evaluations"] += result.evaluations
            c["synth_memo_hits"] += result.memo_hits

        p(topo, "synthesize_topology", "synth", synth_hook)
        p(topo, "tree_from_terminal_edges", "synth")

        for name in _EDIT_METHODS:
            def edit_hook(args, kwargs, result, token, name=name):
                c["incr_edits"] += 1
                c["incr_rebuilds"] += name in _REBUILD_METHODS

            p(incr.IncrementalARD, name, "incr.edit", edit_hook)
        p(incr.IncrementalARD, "__init__", "incr.edit")
        p(incr.IncrementalARD, "evaluate", "incr.evaluate")

        def compile_hook(args, kwargs, result, token):
            c["compiles"] += 1
            c["compiles_numpy"] += bool(kwargs.get("use_numpy", False))

        def kernel_hook(args, kwargs, result, token):
            c["kernel_nodes"] += args[0].n

        def lookup_before(args, kwargs):
            return args[0].hits

        def lookup_hook(args, kwargs, result, token):
            c["flat_lookups"] += 1
            c["flat_hits"] += args[0].hits - token

        p(flat, "compile_net", "flat.compile", compile_hook)
        p(flat, "_kernel", "flat.kernel", kernel_hook)
        for name in ("_finish", "_up_pass", "_timing_table"):
            p(flat, name, "flat.kernel")
        p(flat, "canonical_net_key", "flat.key")
        p(flat, "evaluate_batch", "flat.batch")
        p(batch, "evaluate_batch", "flat.batch")
        p(flat.FlatNetCache, "get_or_compile", "flat.batch", lookup_hook,
          lookup_before)

        def decode_hook(args, kwargs, result, token):
            c["bytes_in"] += len(args[0])

        def encode_hook(args, kwargs, result, token):
            c["bytes_out"] += len(result)

        def tree_hook(args, kwargs, result, token):
            self._decoded_at[id(result)] = time.perf_counter()

        def batch_before(args, kwargs):
            now = time.perf_counter()
            c["batches"] += 1
            c["batch_nets"] += len(args[0])
            for tree in args[0]:
                t = self._decoded_at.pop(id(tree), None)
                if t is not None:
                    self.waits["batch"].append((now - t) * 1e3)

        p(server, "decode_frame", "codec.decode", decode_hook)
        p(server, "encode_frame", "codec.encode", encode_hook)
        p(server, "ard_result_to_dict", "codec.encode")
        p(server, "tree_from_dict", "codec.tree_decode", tree_hook)
        p(server, "eval_context_from_dict", "codec.decode")
        p(session, "terminal_from_dict", "codec.decode")
        p(session, "repeater_from_dict", "codec.decode")
        p(server, "evaluate_batch_parallel", "serve", before=batch_before)
        p(server, "apply_edit", "serve")
        p(session.Session, "evaluate", "serve")

        for name in ("paper_instance", "random_points", "random_net"):
            p(netgen, name, "netgen")

    def restore(self) -> None:
        self.tracer.restore()

    def reset(self) -> None:
        self.tracer.reset()
        self.counts.clear()
        self.waits.clear()

    def install_queue_probe(self) -> None:
        """Time each executor job from submission to start (serve daemon)."""
        from concurrent.futures import ThreadPoolExecutor

        waits = self.waits
        submit = ThreadPoolExecutor.submit

        def timed_submit(executor, fn, /, *args, **kwargs):
            queued = time.perf_counter()

            def run(*a, **k):
                waits["queue"].append((time.perf_counter() - queued) * 1e3)
                return fn(*a, **k)

            return submit(executor, run, *args, **kwargs)

        ThreadPoolExecutor.submit = timed_submit
        self.tracer._patched.append((ThreadPoolExecutor, "submit", submit))

    def restore(self) -> None:
        self.tracer.restore()

    def reset(self) -> None:
        self.tracer.reset()
        self.counts.clear()
        self.waits.clear()

    def snapshot(self) -> dict:
        """Everything the wrappers saw, as plain JSON-ready data."""
        return {
            "totals": self.tracer.totals(),
            "counts": dict(self.counts),
            "waits": {k: list(v) for k, v in self.waits.items()},
        }


def layer_metrics(
    snap: dict, obs_counters: Dict[str, float], *, ops: int, whole_s: float,
    overhead_s: float, netgen_s: float,
) -> Dict[str, float]:
    """Every per-layer metric from a probe snapshot; unused layers read 0.

    ``whole_s`` is the traced whole the rows must add up to: summed
    operation wall-clock in-process, daemon CPU time for serve.
    ``overhead_s`` is traced minus untraced wall-clock of the timed region.
    """
    totals = snap["totals"]
    c = defaultdict(float, snap["counts"])
    waits = defaultdict(list, snap["waits"])
    o = obs_counters

    def self_s(layers):
        return sum(totals.get(layer, {}).get("self_s", 0.0) for layer in layers)

    def calls(layer):
        return totals.get(layer, {}).get("calls", 0)

    out: Dict[str, float] = {
        name: self_s(layers) / ops for name, layers in ROWS.items()
    }
    covered = sum(self_s(layers) for layers in ROWS.values())
    reused = o.get("msri.engine.nodes_reused", 0)
    computed = o.get("msri.engine.nodes_computed", 0)
    out.update({
        "msri.nodes": c["raw_sets"] / ops,
        "msri.solutions.generated": c["generated"] / ops,
        "prune.kept_ratio": _ratio(c["mfs_out"], c["prefilter_in"] or c["mfs_in"]),
        "prune.prefilter_drop_ratio": _ratio(
            c["prefilter_in"] - c["prefilter_out"], c["prefilter_in"]),
        "pwl.calls": calls("pwl") / ops,
        "intervals.calls": calls("intervals") / ops,
        "cache.lookups": c["cache_lookups"] / ops,
        "cache.hit_ratio": _ratio(c["cache_hits"], c["cache_lookups"]),
        "cache.nodes_reused_ratio": _ratio(reused, reused + computed),
        "eco.dirty_nodes": _ratio(c["resolve_dirty_nodes"], c["resolves"]),
        "eco.flush_share": _ratio(c["flushes"], c["resolves"]),
        "synth.evaluations": _ratio(c["synth_evaluations"], c["synth_calls"]),
        "synth.memo_hits": _ratio(c["synth_memo_hits"], c["synth_calls"]),
        "incr.rebuild_share": _ratio(c["incr_rebuilds"], c["incr_edits"]),
        "flat.cache.hit_ratio": _ratio(c["flat_hits"], c["flat_lookups"]),
        "flat.numpy_share": _ratio(c["compiles_numpy"], c["compiles"]),
        "codec.bytes_in": c["bytes_in"] / ops,
        "codec.bytes_out": c["bytes_out"] / ops,
        "serve.queue_wait_ms": _mean(waits["queue"]),
        "serve.batch_wait_ms": _mean(waits["batch"]),
        "serve.batch_nets": _ratio(c["batch_nets"], c["batches"]),
        "netgen.s": netgen_s,
        "trace.other_s": (whole_s - covered) / ops,
        "trace.whole_s": whole_s,
        "trace.overhead_s": overhead_s,
        "trace.ops": float(ops),
    })
    return {name: float(out[name]) for name, _ in METRICS}


def cross_checks(snap: dict, obs_counters: Dict[str, float]) -> List[dict]:
    """Wrapper counts against the program's own obs counters."""
    c = defaultdict(float, snap["counts"])
    o = obs_counters
    checks = [
        ("DP nodes: _raw_set calls vs msri.nodes + msri.engine.nodes_computed",
         c["raw_sets"],
         o.get("msri.nodes", 0) + o.get("msri.engine.nodes_computed", 0)),
        ("prefilter inputs vs msri.prefilter.examined",
         c["prefilter_in"], o.get("msri.prefilter.examined", 0)),
        ("prefilter drops vs msri.prefilter.dropped",
         c["prefilter_in"] - c["prefilter_out"],
         o.get("msri.prefilter.dropped", 0)),
        ("MSRICache.get calls vs msri.cache.hits + misses",
         c["cache_lookups"],
         o.get("msri.cache.hits", 0) + o.get("msri.cache.misses", 0)),
        ("MSRICache.get hits vs msri.cache.hits",
         c["cache_hits"], o.get("msri.cache.hits", 0)),
        ("FlatNetCache lookups vs flat.compile.cache_hits + misses",
         c["flat_lookups"],
         o.get("flat.compile.cache_hits", 0)
         + o.get("flat.compile.cache_misses", 0)),
        ("FlatNetCache hits vs flat.compile.cache_hits",
         c["flat_hits"], o.get("flat.compile.cache_hits", 0)),
        ("kernel nodes vs flat.kernel.nodes",
         c["kernel_nodes"], o.get("flat.kernel.nodes", 0)),
    ]
    if not o.get("msri.engine.solves", 0):
        # only the cold DP emits msri.solutions.*
        checks.append((
            "generated solutions vs msri.solutions.generated",
            c["generated"], o.get("msri.solutions.generated", 0)))
    return [
        {"check": name, "wrapper": float(a), "obs": float(b), "ok": a == b}
        for name, a, b in checks
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0
