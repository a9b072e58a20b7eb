"""Golden per-node MSRI fronts: every pruned front, bit for bit.

The root (cost, ARD) suite is a thin summary of the DP; two builds can
agree on it while the fronts underneath drift (a domain endpoint moving
in the last bit, a tie resolved the other way).  This module pins the
*whole* DP: for a few small seeded Table II/IV nets, in both
repeater-insertion and driver-sizing modes, every non-root vertex's
pruned front is compared by exact equality against a committed fixture —
scalars, domain endpoints and every ``arr``/``diam`` quadruple, in front
order.

Regenerate the fixture (only for an intentional, documented model change)
with ``PYTHONPATH=src python tests/test_golden_fronts.py --record``.
"""

from __future__ import annotations

import json
import math
import os
import sys

import pytest

from repro.core.msri import (
    _domain_bound,
    _make_pruner,
    _raw_set,
    insert_repeaters,
)
from repro.netgen import (
    driver_sizing_options,
    paper_instance,
    paper_technology,
    repeater_insertion_options,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "golden_fronts.json")

#: (label, mode, paper_instance seed, pins) — small enough to keep the
#: fixture compact, large enough to exercise branch joins, repeater
#: decoupling, holey domains and multi-segment PWLs.
CASES = [
    ("rep-s0-p4", "rep", 0, 4),
    ("rep-s3-p4", "rep", 3, 4),
    ("ds-s1-p4", "ds", 1, 4),
    ("ds-s3-p4", "ds", 3, 4),
]


def _options(mode):
    if mode == "rep":
        return repeater_insertion_options()
    return driver_sizing_options()


def _floats(values):
    """JSON-safe exact floats: finite values as-is, infinities as strings."""
    return [v if math.isfinite(v) else repr(v) for v in values]


def _pwl_record(f):
    if f is None:
        return None
    return _floats(
        [x for g in f.segments for x in (g.lo, g.hi, g.intercept, g.slope)]
    )


def front_record(front):
    """Value tuples of one front, in front order (uids excluded)."""
    return [
        [
            s.parity,
            _floats((s.cost, s.cap, s.q)),
            _floats([x for iv in s.domain.intervals for x in (iv.lo, iv.hi)]),
            _pwl_record(s.arr),
            _pwl_record(s.diam),
        ]
        for s in front
    ]


def per_node_fronts(tree, tech, options):
    """Run the DP's per-node fold, keeping every pruned front.

    The same postorder sweep as :func:`insert_repeaters` (same
    ``_raw_set`` construction, same composed pruner), minus the memory
    release, so every vertex's front is still around to compare.
    """
    c_max = _domain_bound(tree, tech, options)
    prune = _make_pruner(options)
    sets = {}
    for v in tree.dfs_postorder():
        if v == tree.root:
            continue
        sets[v] = prune(_raw_set(tree, tech, v, sets, c_max, prune, options))
    return {str(v): front_record(front) for v, front in sorted(sets.items())}


def record_case(mode, seed, pins):
    tech = paper_technology()
    tree = paper_instance(seed, pins)
    options = _options(mode)
    result = insert_repeaters(tree, tech, options)
    return {
        "fronts": per_node_fronts(tree, tech, options),
        "suite": [_floats((s.cost, s.ard)) for s in result.solutions],
    }


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("label,mode,seed,pins", CASES, ids=[c[0] for c in CASES])
def test_per_node_fronts_match_golden(golden, label, mode, seed, pins):
    want = golden[label]
    got = record_case(mode, seed, pins)
    assert got["suite"] == want["suite"]
    assert sorted(got["fronts"]) == sorted(want["fronts"])
    for v, front in want["fronts"].items():
        assert got["fronts"][v] == front, f"{label}: front at node {v} drifted"


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(c[0] for c in CASES)


def _record_all():
    data = {label: record_case(mode, seed, pins) for label, mode, seed, pins in CASES}
    with open(FIXTURE, "w") as fh:
        json.dump(data, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden_fronts.py --record")
    _record_all()
