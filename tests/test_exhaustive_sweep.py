"""Ground-truth sweep: the MSRI DP against exhaustive enumeration.

The bit-identity differentials (cached vs cold, prefilter vs pure Fig. 4,
golden per-node fronts) tie the DP to *itself*.  This sweep ties it to
the problem: on 300 seeded random multi-source nets — 3 to 6 terminals,
at most 7 insertion points, pure sources, pure sinks and bidirectional
terminals mixed — the (cost, ARD) suite must equal the frontier of
:func:`repro.analysis.exhaustive.exhaustive_frontier` (paper Theorem
4.1) on three solver paths:

* the default DP (prefilter and pair prescreen on);
* the pure Fig. 4 pruner (``prefilter=False``);
* ``quantize_bound`` through one shared :class:`MSRICache`, solved twice:
  once storing every subtree front, once rebuilding the net from the
  stored (packed) fronts.

The CI ``contracts`` leg runs it under ``REPRO_CHECK=1`` as well.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.exhaustive import exhaustive_frontier
from repro.core.msri import MSRIOptions, insert_repeaters
from repro.core.msri_cache import MSRICache
from repro.core.msri_engine import insert_repeaters_cached
from repro.tech import Buffer, Repeater, RepeaterLibrary, Technology

from .conftest import random_topology

TECH = Technology(unit_resistance=0.1, unit_capacitance=0.01, name="test")
REP = Repeater.from_buffer_pair(
    Buffer("b", intrinsic_delay=20.0, output_resistance=50.0, input_capacitance=0.25),
    name="rep",
)
ASYM = Repeater.from_buffer_pair(
    Buffer("f", 10.0, 80.0, 0.1), Buffer("g", 30.0, 40.0, 0.3), name="asym"
)
BIG = Repeater.from_buffer_pair(Buffer("B", 20.0, 25.0, 0.5, cost=2.0), name="big")
LIBRARIES = (RepeaterLibrary([REP]), RepeaterLibrary([ASYM, BIG]))

NETS = 300
MAX_INSERTION_POINTS = 7


def frontiers_equal(dp, ex, tol=1e-6):
    return len(dp) == len(ex) and all(
        abs(a[0] - b[0]) <= tol and abs(a[1] - b[1]) <= tol for a, b in zip(dp, ex)
    )


def sweep_cases():
    """The seeded nets: (index, tree, library), insertion points capped."""
    rng = np.random.default_rng(20240613)
    cases = []
    while len(cases) < NETS:
        tree = random_topology(
            rng, n_terminals=int(rng.integers(3, 7)), p_insertion=0.7
        )
        if len(tree.insertion_indices()) > MAX_INSERTION_POINTS:
            continue
        lib = LIBRARIES[int(rng.integers(0, len(LIBRARIES)))]
        cases.append((len(cases), tree, lib))
    return cases


def test_dp_matches_exhaustive_on_every_path():
    cache = MSRICache()
    mismatches = []
    for i, tree, lib in sweep_cases():
        truth = exhaustive_frontier(tree, TECH, lib)
        paths = {
            "default": insert_repeaters(tree, TECH, MSRIOptions(library=lib)),
            "no-prefilter": insert_repeaters(
                tree, TECH, MSRIOptions(library=lib, prefilter=False)
            ),
        }
        quantized = MSRIOptions(library=lib, quantize_bound=True)
        for run in ("quantized-store", "quantized-reuse"):
            paths[run] = insert_repeaters_cached(tree, TECH, quantized, cache=cache)
        for name, result in paths.items():
            if not frontiers_equal(result.tradeoff(), truth):
                mismatches.append((i, name, result.tradeoff(), truth))
    assert not mismatches, f"{len(mismatches)} mismatches, first: {mismatches[0]}"
    # every second quantized solve was served from packed fronts
    assert cache.hits >= NETS


def test_sweep_shape():
    cases = sweep_cases()
    assert len(cases) == NETS
    sizes = [len(tree.terminal_indices()) for _, tree, _ in cases]
    points = [len(tree.insertion_indices()) for _, tree, _ in cases]
    assert min(sizes) == 3 and max(sizes) == 6
    assert max(points) <= MAX_INSERTION_POINTS
    assert sum(1 for p in points if p >= 4) >= NETS // 10
    assert {id(lib) for _, _, lib in cases} == {id(lib) for lib in LIBRARIES}
