"""The four perfbench workloads, run one per fresh process by ``run.py``.

Usage (normally invoked by ``run.py``, which sets PYTHONPATH and
PYTHONHASHSEED)::

    python3 perfbench/workloads.py --workload NAME --seed N --trace 0|1

Prints one JSON object on its last stdout line: set-up times, the timed
operations split into a primary and a secondary class, the named
per-workload quantities, output-check failures and, when traced, the
per-layer snapshot.  Every workload does a fixed amount of work: nothing is
time-boxed, so every run of one seed executes the same operations.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from harness import HostSpeed, first_mismatch, median, peak_rss_mb, percentile

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_TABLE4 = os.path.join(HERE, "golden", "table4_suites.json")


def _timed(fn, *args, **kwargs):
    """Collect garbage outside the window, then time one operation.

    Survivors are frozen so each collection scans only what the previous
    unit allocated: a full collection over a large retained heap takes
    ~0.1 s, which would otherwise dominate short workloads.
    """
    gc.collect()
    gc.freeze()
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def _tail(values_s: List[float], p: float):
    return {
        "value": percentile(values_s, p) * 1e3,
        "unit": "ms",
        "samples": len(values_s),
        "percentile": p,
    }


def _ref_mean_ms(times_s: List[float], factors: List[float]) -> float:
    """Mean operation time at reference host speed, in ms."""
    return sum(t * f for t, f in zip(times_s, factors)) / len(times_s) * 1e3


class Workload:
    """One workload: ``setup`` (repeated, median reported), ``measure``,
    ``check``.

    ``measure`` returns the raw primary and secondary operation times (s),
    their reference-speed summaries (``primary_ref_ms``, ``secondary_ref_ms``,
    ``ops_ref_s``), the summed operation wall-clock and the per-workload
    named quantities.  ``self.host`` samples host speed between units of
    work (see :class:`harness.HostSpeed`).
    """

    setup_rounds = 5

    def __init__(self, seed: int, trace: bool = False):
        self.seed = seed
        self.trace = trace
        self.host = HostSpeed()

    def teardown(self, state) -> None:
        pass

    def peak_rss_mb(self, state) -> float:
        return peak_rss_mb()


# -- table4_cold ---------------------------------------------------------------


class Table4Cold(Workload):
    """The paper's Table IV protocol: cold exact DP on the Sec. VI nets.

    The nets are the protocol's own (``paper_instance`` seeds 0-9); per-net
    runtime varies 25x between generated nets, so drawing nets from the
    run seed would measure the draw, not the code.  The run seed sets the
    order in which the twenty solves run.
    """

    setup_rounds = 9  # set-up is ~20 ms here; more rounds steady its median

    def setup(self):
        from repro import netgen

        tech = netgen.paper_technology()
        jobs = [("rep", i, netgen.paper_instance(i, 10)) for i in range(10)]
        jobs += [("ds", i, netgen.paper_instance(i, 20)) for i in range(10)]
        random.Random(self.seed).shuffle(jobs)
        options = {
            "rep": netgen.repeater_insertion_options(),
            "ds": netgen.driver_sizing_options(),
        }
        return {"tech": tech, "jobs": jobs, "options": options}

    def measure(self, state):
        from repro.core import msri

        times = {"rep": [], "ds": []}
        factors = {"rep": [], "ds": []}
        suites = {"rep": [None] * 10, "ds": [None] * 10}
        self.host.segment()
        for mode, i, tree in state["jobs"]:
            dt, result = _timed(
                msri.insert_repeaters, tree, state["tech"], state["options"][mode]
            )
            factors[mode].append(self.host.segment())
            times[mode].append(dt)
            suites[mode][i] = [[s.cost, s.ard] for s in result.solutions]
        state["suites"] = suites
        rep, ds = times["rep"], times["ds"]
        ref_total = sum(t * f for m in times for t, f in zip(times[m], factors[m]))
        return {
            "primary_ref_ms": _ref_mean_ms(rep, factors["rep"]),
            "secondary_ref_ms": _ref_mean_ms(ds, factors["ds"]),
            "ops_ref_s": len(rep + ds) / ref_total,
            "primary": rep,
            "secondary": ds,
            "op_wall_s": sum(rep) + sum(ds),
            "details": {
                "rep_net_s": {"value": sum(rep) / len(rep), "unit": "s",
                              "samples": len(rep)},
                "ds_net_s": {"value": sum(ds) / len(ds), "unit": "s",
                             "samples": len(ds)},
            },
        }

    def check(self, state, measured) -> Tuple[int, List[str]]:
        suites = state["suites"]
        out_dir = os.path.join(os.getcwd(), ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"table4_suites_seed{self.seed}.json"), "w") as fh:
            json.dump(suites, fh)
        with open(GOLDEN_TABLE4) as fh:
            golden = json.load(fh)
        failures = []
        for mode in ("rep", "ds"):
            for i in range(10):
                diff = first_mismatch(golden[mode][i], suites[mode][i], f"{mode}[{i}]")
                if diff:
                    failures.append(f"Table IV suite differs from golden: {diff}")
        return 20, failures


# -- msri_eco ------------------------------------------------------------------


class MsriEco(Workload):
    """Re-optimisation through one shared MSRICache (``quantize_bound`` on).

    Synthesis searches over a fixed corpus of 6-8-pin point sets; ECO edit
    streams on a fixed corpus of 4-pin Sec. VI nets, one re-solve per
    edit.  Both corpora and every net's edits are fixed for the same
    reason as Table IV's (a search or DP costs up to 10x more on one point
    set than another); the run seed sets the synthesis order, which decides
    what the shared cache holds when each search runs, and the order of
    each net's edits.
    """

    n_synth = 45
    synth_group = 5  # synthesis calls per host-speed sample
    n_eco_nets = 20
    edits_per_net = 6
    check_every = 10  # re-solves; synthesis results are checked every 5th

    def setup(self):
        from repro import netgen
        from repro.core.msri_cache import MSRICache
        from repro.core.msri_engine import IncrementalMSRI
        from repro.tech import Terminal

        tech = netgen.paper_technology()
        options = netgen.repeater_insertion_options(quantize_bound=True)
        spec = netgen.paper_net_spec()
        terminal_sets = []
        order = list(range(self.n_synth))
        random.Random(self.seed).shuffle(order)
        for i in order:
            pts = netgen.random_points(1000 + i, 6 + i % 3)
            terminal_sets.append([
                Terminal(f"p{k}", x, y, capacitance=spec.capacitance,
                         resistance=spec.resistance,
                         intrinsic_delay=spec.intrinsic_delay)
                for k, (x, y) in enumerate(pts)
            ])
        cache = MSRICache()
        order_rng = random.Random(self.seed + 1)
        engines = []
        for k in range(self.n_eco_nets):
            tree = netgen.paper_instance(k, 4)
            engine = IncrementalMSRI(tree, tech, options, cache=cache)
            engine.solve()  # priming: every ECO starts from a solved net
            stream = self._edit_stream(random.Random(k), tree)
            order_rng.shuffle(stream)
            engines.append((engine, stream))
        return {"tech": tech, "options": options, "cache": cache,
                "terminal_sets": terminal_sets, "engines": engines}

    def _edit_stream(self, rng: random.Random, tree) -> List[tuple]:
        kinds = ["terminal", "length", "width"] * (self.edits_per_net // 3)
        rng.shuffle(kinds)
        terminals = sorted(tree.terminal_indices())
        edges = [v for v in range(len(tree))
                 if tree.parent(v) is not None and tree.edge_length(v) > 0.0]
        stream = []
        for kind in kinds:
            if kind == "terminal":
                stream.append((kind, rng.choice(terminals), {
                    "arrival_time": round(rng.uniform(0.0, 50.0), 3),
                    "downstream_delay": round(rng.uniform(0.0, 50.0), 3),
                    "cap_scale": round(rng.uniform(0.9, 1.1), 3),
                }))
            elif kind == "length":
                stream.append((kind, rng.choice(edges),
                               round(rng.uniform(0.8, 1.25), 3)))
            else:
                stream.append((kind, rng.choice(edges),
                               rng.choice((0.5, 0.8, 1.25, 2.0))))
        return stream

    @staticmethod
    def _apply(engine, widths: Dict[int, float], edit) -> None:
        kind, v, value = edit
        if kind == "terminal":
            term = engine.tree.node(v).terminal
            engine.set_terminal(v, replace(
                term,
                arrival_time=value["arrival_time"],
                downstream_delay=value["downstream_delay"],
                capacitance=term.capacitance * value["cap_scale"],
            ))
        elif kind == "length":
            engine.set_edge_length(v, engine.tree.edge_length(v) * value)
        else:
            engine.set_wire_width(v, value)
            widths[v] = value

    def measure(self, state):
        from repro.steiner import topology_search

        tech, options, cache = state["tech"], state["options"], state["cache"]
        host = self.host
        synth_times, synth_factors, synth_results = [], [], []
        host.segment()
        for k, terms in enumerate(state["terminal_sets"], 1):
            dt, result = _timed(
                topology_search.synthesize_topology, terms, tech,
                objective="msri", msri_options=options, msri_cache=cache,
            )
            synth_times.append(dt)
            synth_results.append(result)
            if k % self.synth_group == 0:
                synth_factors += [host.segment()] * self.synth_group

        def eco(engine, widths, edit):
            self._apply(engine, widths, edit)
            return engine.solve()

        resolve_times, resolve_factors, samples = [], [], []
        for engine, stream in state["engines"]:
            widths: Dict[int, float] = {}
            for edit in stream:
                dt, result = _timed(eco, engine, widths, edit)
                resolve_times.append(dt)
                if len(resolve_times) % self.check_every == 0:
                    samples.append((result, dict(widths)))
            resolve_factors += [host.segment()] * len(stream)
        state["samples"] = samples
        state["synth_results"] = synth_results
        ref_total = sum(t * f for t, f in zip(
            resolve_times + synth_times, resolve_factors + synth_factors))
        return {
            "primary_ref_ms": _ref_mean_ms(resolve_times, resolve_factors),
            "secondary_ref_ms": _ref_mean_ms(synth_times, synth_factors),
            "ops_ref_s": (len(resolve_times) + len(synth_times)) / ref_total,
            "primary": resolve_times,
            "secondary": synth_times,
            "op_wall_s": sum(resolve_times) + sum(synth_times),
            "details": {
                "synth_net_s": {"value": sum(synth_times) / len(synth_times),
                                "unit": "s", "samples": len(synth_times)},
                "resolve_p50_ms": _tail(resolve_times, 50),
                "resolve_p90_ms": _tail(resolve_times, 90),
            },
        }

    def check(self, state, measured):
        from repro.check import contracts
        from repro.core.msri import insert_repeaters
        from repro.rctree.engine import EvalContext

        tech, options = state["tech"], state["options"]
        failures = []
        for result, widths in state["samples"]:
            ctx = EvalContext(wire_widths=widths) if widths else None
            cold = insert_repeaters(result.tree, tech, options, context=ctx)
            try:
                contracts.verify_msri_equivalence(result, cold, context="ECO re-solve")
            except contracts.ContractViolation as exc:
                failures.append(str(exc))
        checked = state["synth_results"][::5]
        for result in checked:
            cold = insert_repeaters(result.tree, tech, options)
            if cold.min_ard().ard != result.ard:  # repro: noqa[R001] value-equal is the check
                failures.append(
                    f"synthesis ARD {result.ard!r} != cold DP {cold.min_ard().ard!r}"
                )
        return len(state["samples"]) + len(checked), failures


# -- serve_mixed ---------------------------------------------------------------


class _Conn:
    """A blocking NDJSON connection that keeps every raw response line."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60.0)
        self.fh = self.sock.makefile("rb")

    def roundtrip(self, frame: bytes) -> bytes:
        self.sock.sendall(frame)
        line = self.fh.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return line

    def close(self) -> None:
        self.fh.close()
        self.sock.close()


class ServeMixed(Workload):
    """``repro-msri serve`` in its own process, two closed-loop connections.

    Each connection edits its own fixed ~700-node session net and, between
    edits, sends one-shot ``evaluate`` frames of small nets drawn with a
    skew from a pool twice the daemon's 256-entry compile cache.  The nets
    and edit streams are fixed: the share of full-rebuild edits (reroot,
    set_wire_scale) moves the mean edit time by 25% between seeded
    streams.  The run seed draws which pool net each evaluate sends.
    """

    pairs_per_conn = 550
    segments = 10  # host-speed samples per run; divides 2 * pairs_per_conn
    pool_size = 512
    session_pins = 200

    def setup(self):
        from repro import netgen
        from repro.io.serialize import SERVE_SCHEMA, encode_frame, tree_to_dict
        from repro.serve.loadgen import edit_stream

        rng = random.Random(self.seed)
        pool = [netgen.paper_instance(80_000 + i, 4 + i % 24)
                for i in range(self.pool_size)]
        pool_dicts = [tree_to_dict(t) for t in pool]
        conns = []
        for c in range(2):
            tree = netgen.paper_instance(90_000 + c, self.session_pins)
            edits = edit_stream(90_000 + c, tree, self.pairs_per_conn)
            picks = [min(self.pool_size - 1, int(self.pool_size * rng.random() ** 2))
                     for _ in range(self.pairs_per_conn)]
            frames = []
            rid = 1  # the open frame
            for edit, pick in zip(edits, picks):
                rid += 1
                frames.append(("edit", rid, edit, None))
                rid += 1
                frames.append(("evaluate", rid, None, pick))
            conns.append({"tree": tree, "edits": edits, "frames": frames,
                          "open": {"schema": SERVE_SCHEMA, "id": 1, "op": "open",
                                   "net": tree_to_dict(tree)}})
        daemon = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve_daemon.py"),
             "--trace", str(int(self.trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = daemon.stdout.readline()
            port = int(line.rsplit(":", 1)[1].split()[0])
            control = _Conn(port)
            for conn in conns:
                conn["sock"] = _Conn(port)
                conn["open_raw"] = conn["sock"].roundtrip(encode_frame(conn["open"]))
                conn["sid"] = json.loads(conn["open_raw"])["session"]
                wire = []
                for op, rid, edit, pick in conn["frames"]:
                    if op == "edit":
                        body = {"session": conn["sid"], **edit}
                    else:
                        body = {"nets": [pool_dicts[pick]]}
                    wire.append(encode_frame(
                        {"schema": SERVE_SCHEMA, "id": rid, "op": op, **body}))
                conn["wire"] = wire
        except BaseException:
            self._stop(daemon)
            raise
        return {"daemon": daemon, "control": control, "conns": conns,
                "pool": pool}

    @staticmethod
    def _stop(daemon) -> None:
        daemon.stdin.close()
        if daemon.poll() is None:
            daemon.terminate()
            try:
                daemon.wait(timeout=20)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait()
        daemon.stdout.close()

    def teardown(self, state) -> None:
        for conn in state["conns"]:
            if "sock" in conn:
                conn["sock"].close()
        state["control"].close()
        self._stop(state["daemon"])

    def peak_rss_mb(self, state) -> float:
        return peak_rss_mb(state["daemon"].pid)

    def _control(self, state, command: str) -> dict:
        """A ``stats`` frame on the control connection (serve_daemon.py)."""
        from repro.io.serialize import SERVE_SCHEMA, encode_frame

        raw = state["control"].roundtrip(encode_frame(
            {"schema": SERVE_SCHEMA, "id": 0, "op": "stats", "perfbench": command}))
        return json.loads(raw)

    def _kernel(self, state) -> float:
        """Calibration kernel time averaged over the client and the daemon,
        which run on different CPUs and both sit on every request's path."""
        return (self.host.sample() + self._control(state, "kernel")["kernel_s"]) / 2

    def measure(self, state):
        """Both connections run ``segments`` equal slices of their frames;
        between slices they wait while the host speed is sampled."""
        gc.collect()
        self._control(state, "open")  # the daemon's traced window
        segments = self.segments
        barrier = threading.Barrier(len(state["conns"]) + 1, timeout=120)
        errors: List[BaseException] = []

        def drive(conn):
            sock, lat, raws = conn["sock"], [], []
            per = len(conn["wire"]) // segments
            try:
                for s in range(segments):
                    for frame in conn["wire"][s * per:(s + 1) * per]:
                        t0 = time.perf_counter()
                        raw = sock.roundtrip(frame)
                        lat.append(time.perf_counter() - t0)
                        raws.append(raw)
                    barrier.wait()  # slice done
                    barrier.wait()  # host sampled
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)
                barrier.abort()
            conn["lat"], conn["raws"] = lat, raws

        threads = [threading.Thread(target=drive, args=(c,)) for c in state["conns"]]
        kernel = [self._kernel(state)]
        walls, factors = [], []
        for t in threads:
            t.start()
        try:
            for _ in range(segments):
                t0 = time.perf_counter()
                barrier.wait()
                walls.append(time.perf_counter() - t0)
                kernel.append(self._kernel(state))
                factors.append(self.host.ref_s / min(kernel[-2], kernel[-1]))
                barrier.wait()
        except threading.BrokenBarrierError:
            pass
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        window = sum(walls)
        state["daemon_trace"] = self._control(state, "close").get("perfbench")
        edits, evals, edit_f, eval_f = [], [], [], []
        for conn in state["conns"]:
            per = len(conn["wire"]) // segments
            for k, ((op, *_), dt) in enumerate(zip(conn["frames"], conn["lat"])):
                f = factors[k // per]
                if op == "edit":
                    edits.append(dt)
                    edit_f.append(f)
                else:
                    evals.append(dt)
                    eval_f.append(f)
        ops = len(edits) + len(evals)
        return {
            "primary_ref_ms": _ref_mean_ms(edits, edit_f),
            "secondary_ref_ms": _ref_mean_ms(evals, eval_f),
            "ops_ref_s": ops / sum(w * f for w, f in zip(walls, factors)),
            "primary": edits,
            "secondary": evals,
            "op_wall_s": window,
            "details": {
                "edit_p50_ms": _tail(edits, 50),
                "edit_p99_ms": _tail(edits, 99),
                "evaluate_p50_ms": _tail(evals, 50),
                "evaluate_p99_ms": _tail(evals, 99),
                "serve_ops_s": {"value": ops / window, "unit": "1/s",
                                "samples": ops},
            },
        }

    def check(self, state, measured):
        """Every response byte-equals a serial replay on a local engine."""
        from repro import netgen
        from repro.io.serialize import SERVE_SCHEMA, ard_result_to_dict, encode_frame
        from repro.rctree.flat import evaluate_batch
        from repro.rctree.registry import make_editable_engine
        from repro.serve.session import apply_edit

        tech = netgen.paper_technology()
        expected_eval: Dict[int, Dict[str, Any]] = {}
        failures, attempted = [], 0
        for c, conn in enumerate(state["conns"]):
            local = make_editable_engine("incremental", conn["tree"], tech)
            expect = encode_frame({
                "schema": SERVE_SCHEMA, "id": 1, "ok": True,
                "session": conn["sid"], "n": len(conn["tree"]),
                "ard": ard_result_to_dict(local.evaluate()),
            })
            attempted += 1
            if expect != conn["open_raw"]:
                failures.append(f"conn {c}: open response differs")
            edits = iter(conn["edits"])
            for (op, rid, _, pick), raw in zip(conn["frames"], conn["raws"]):
                attempted += 1
                if op == "edit":
                    apply_edit(local, next(edits))
                    body = {"session": conn["sid"],
                            "ard": ard_result_to_dict(local.evaluate())}
                else:
                    if pick not in expected_eval:
                        result = evaluate_batch([state["pool"][pick]], tech)[0]
                        expected_eval[pick] = ard_result_to_dict(result)
                    body = {"ards": [expected_eval[pick]]}
                expect = encode_frame(
                    {"schema": SERVE_SCHEMA, "id": rid, "ok": True, **body})
                if expect != raw:
                    failures.append(f"conn {c} {op} id {rid}: {raw[:120]!r}")
        return attempted, failures


# -- ard_batch -----------------------------------------------------------------


class ArdBatch(Workload):
    """Offline ``evaluate_batch`` over a seeded corpus, cold then warm.

    Pin counts are fixed per slot (small nets cycle 4-27 pins; large nets
    have 200 pins, 650-800 nodes, on the numpy side of
    ``AUTO_NUMPY_MIN_NODES``); the run seed draws geometry and the sparse
    repeater assignments, so the work per pass is nearly seed-independent.
    """

    n_small = 480
    n_large = 24
    passes = 12

    def setup(self):
        from repro import netgen
        from repro.rctree.engine import EvalContext

        base = self.seed * 100_000
        nets = [netgen.paper_instance(base + i, 4 + i % 24)
                for i in range(self.n_small)]
        nets += [netgen.paper_instance(base + 50_000 + i, 200)
                 for i in range(self.n_large)]
        rep = netgen.paper_repeater_library().repeaters[0]
        rng = random.Random(self.seed)
        contexts = []
        for tree in nets:
            placed = {v: rep for v in sorted(tree.insertion_indices())
                      if rng.random() < 0.1}
            contexts.append(EvalContext(assignment=placed))
        return {"tech": netgen.paper_technology(), "nets": nets,
                "contexts": contexts}

    def measure(self, state):
        from repro.rctree import flat

        nets, contexts, tech = state["nets"], state["contexts"], state["tech"]
        n = len(nets)
        cold, warm, outputs = [], [], []
        cold_f, warm_f = [], []
        self.host.segment()
        for _ in range(self.passes):
            cache = flat.FlatNetCache(maxsize=n)
            for times, factors in ((cold, cold_f), (warm, warm_f)):
                dt, results = _timed(flat.evaluate_batch, nets, tech,
                                     contexts=contexts, cache=cache)
                factors.append(self.host.segment())
                times.append(dt / n)
                outputs.append([(r.value, r.source, r.sink) for r in results])
        state["outputs"] = outputs
        # identical passes repeat, so the fastest pass at reference speed is
        # the one the host disturbed least
        ref_cold = [t * f for t, f in zip(cold, cold_f)]
        ref_warm = [t * f for t, f in zip(warm, warm_f)]
        return {
            "primary_ref_ms": min(ref_cold) * 1e3,
            "secondary_ref_ms": min(ref_warm) * 1e3,
            "ops_ref_s": 2 * self.passes / (sum(ref_cold) + sum(ref_warm)),
            "primary": cold,
            "secondary": warm,
            "op_wall_s": (sum(cold) + sum(warm)) * n,
            "ops": 2 * self.passes * n,
            "details": {
                "batch_cold_nets_s": {"value": 1.0 / median(cold), "unit": "1/s",
                                      "samples": len(cold)},
                "batch_warm_nets_s": {"value": 1.0 / median(warm), "unit": "1/s",
                                      "samples": len(warm)},
            },
        }

    def check(self, state, measured):
        """Every result is bit-identical to the reference ``ard``."""
        from repro.core.ard import ard

        tech = state["tech"]
        reference = []
        for tree, ctx in zip(state["nets"], state["contexts"]):
            r = ard(tree, tech, context=ctx)
            reference.append((r.value, r.source, r.sink))
        failures = []
        for k, out in enumerate(state["outputs"]):
            for i, (got, want) in enumerate(zip(out, reference)):
                if got != want:
                    failures.append(f"pass {k // 2} net {i}: {got!r} != {want!r}")
        return sum(len(o) for o in state["outputs"]), failures


WORKLOADS = {
    "table4_cold": Table4Cold,
    "msri_eco": MsriEco,
    "serve_mixed": ServeMixed,
    "ard_batch": ArdBatch,
}


def run(name: str, seed: int, trace: bool, untraced_wall_s: float) -> dict:
    probe = None
    if trace:
        from repro.obs import core as obs
        from layers import LayerProbe

        obs.set_enabled(True)
        probe = LayerProbe()
        probe.install()
    workload = WORKLOADS[name](seed, trace)
    setup_times, setup_ref, netgen_s = [], [], 0.0
    state = None
    workload.host.segment()
    for _ in range(workload.setup_rounds):
        if state is not None:
            workload.teardown(state)
            state = None
        gc.unfreeze()  # let the previous round's state be collected
        if probe is not None:
            probe.reset()
        dt, state = _timed(workload.setup)
        setup_times.append(dt)
        setup_ref.append(dt * workload.host.segment())
    if probe is not None:
        netgen_s = probe.tracer.totals().get("netgen", {}).get("self_s", 0.0)
        probe.reset()
        obs.reset()
    try:
        measured = workload.measure(state)
        rss = workload.peak_rss_mb(state)
    finally:
        if probe is not None:
            snap = probe.snapshot()
            counters = obs.snapshot()["counters"]
            probe.restore()
            obs.set_enabled(False)
        if name == "serve_mixed":
            workload.teardown(state)
    t_check = time.perf_counter()
    attempted, failures = workload.check(state, measured)
    check_s = time.perf_counter() - t_check
    primary, secondary = measured["primary"], measured["secondary"]
    ops = measured.get("ops", len(primary) + len(secondary))
    out = {
        "workload": name,
        "seed": seed,
        "setup_s": median(setup_ref),
        "setup_rounds_s": setup_times,
        "primary_ref_ms": measured["primary_ref_ms"],
        "secondary_ref_ms": measured["secondary_ref_ms"],
        "ops_ref_s": measured["ops_ref_s"],
        "peak_rss_mb": rss,
        "host_kernel_ms": [t * 1e3 for t in workload.host.samples],
        "ops": ops,
        "op_wall_s": measured["op_wall_s"],
        "samples": {"primary": len(primary), "secondary": len(secondary)},
        "raw_s": {"primary": primary, "secondary": secondary},
        "check_s": check_s,
        "details": measured["details"],
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
    }
    if trace:
        from layers import cross_checks, layer_metrics

        if name == "serve_mixed":
            daemon = state["daemon_trace"]
            snap, counters = daemon["probe"], daemon["obs"]
            whole = daemon["cpu_s"]
        else:
            whole = measured["op_wall_s"]
        out["layers"] = layer_metrics(
            snap, counters, ops=ops, whole_s=whole,
            overhead_s=measured["op_wall_s"] - untraced_wall_s,
            netgen_s=netgen_s,
        )
        out["cross_checks"] = cross_checks(snap, counters)
    return out


def record_golden() -> None:
    """Write the Table IV golden suites from the current program."""
    workload = Table4Cold(0)
    state = workload.setup()
    workload.measure(state)
    suites = state["suites"]
    blocks = [
        f' "{mode}": [\n' + ",\n".join("  " + json.dumps(net) for net in suites[mode])
        + "\n ]"
        for mode in ("rep", "ds")
    ]
    os.makedirs(os.path.dirname(GOLDEN_TABLE4), exist_ok=True)
    with open(GOLDEN_TABLE4, "w") as fh:  # one net per line, so diffs stay legible
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--untraced-wall-s", type=float, default=0.0)
    ap.add_argument("--record-golden", action="store_true",
                    help="rewrite golden/table4_suites.json and exit")
    args = ap.parse_args(argv)
    if args.record_golden:
        record_golden()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    out = run(args.workload, args.seed, bool(args.trace), args.untraced_wall_s)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
