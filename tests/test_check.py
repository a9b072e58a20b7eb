"""Tests for the ``repro.check`` subsystem: lint engine, rules, contracts.

Fixture files in ``tests/fixtures/check`` each seed one known violation;
the engine must report exactly that rule on them and nothing on the clean
file.  The contract layer must catch injected violations of the paper's
invariants (Pareto domination after pruning, negative Eq. 1/2 capacitance)
and stay silent on healthy runs.
"""

import json
from pathlib import Path

import pytest

from repro.check import (
    ContractViolation,
    LintEngine,
    checking,
    contracts_enabled,
    set_enabled,
)
from repro.check import contracts
from repro.check.cli import main as lint_main
from repro.check.rules import DEFAULT_RULES, rules_by_id
from repro.cli import main as repro_main
from repro.core.ard import ARDResult, ard
from repro.core.intervals import IntervalSet
from repro.core.msri import MSRIOptions, insert_repeaters
from repro.core.pwl import PWL, Segment
from repro.core.solution import RootSolution, Solution, Trace
from repro.rctree.elmore import ElmoreAnalyzer
from repro.tech import Buffer, Repeater, RepeaterLibrary, Technology

from .conftest import two_pin_net, y_net

FIXTURES = Path(__file__).parent / "fixtures" / "check"
SRC = Path(__file__).resolve().parents[1] / "src"

TECH = Technology(unit_resistance=0.1, unit_capacitance=0.01, name="test")
LIB = RepeaterLibrary(
    [
        Repeater.from_buffer_pair(
            Buffer("b", intrinsic_delay=20.0, output_resistance=50.0,
                   input_capacitance=0.25),
            name="rep",
        )
    ]
)


def lint_fixture(name):
    source = (FIXTURES / name).read_text()
    # a neutral path: fixtures live under tests/, which R003 exempts
    return LintEngine().lint_source(source, path=name)


# -- rule catalogue -----------------------------------------------------------


def test_rule_catalogue_is_complete():
    ids = [rule.rule_id for rule in DEFAULT_RULES]
    assert ids == [
        "R001", "R002", "R003", "R004", "R005",
        "R006", "R007", "R008", "R009", "R010",
    ]
    assert set(rules_by_id()) == set(ids)
    assert all(rule.description for rule in DEFAULT_RULES)
    assert all(rule.severity in ("error", "warning") for rule in DEFAULT_RULES)


# -- seeded fixtures: each triggers exactly its rule --------------------------


@pytest.mark.parametrize(
    "fixture, rule_id, lines",
    [
        ("r001_float_eq.py", "R001", [5, 7]),
        ("r002_set_iteration.py", "R002", [7]),
        ("r003_assert.py", "R003", [9]),
        ("r004_mutable_default.py", "R004", [4]),
        ("r005_tech_mutation.py", "R005", [5]),
        ("r006_dimensions.py", "R006", [5]),
        ("r007_interproc.py", "R007", [14]),
        ("r008_parallel.py", "R008", [12, 18]),
        ("r009_determinism.py", "R009", [16, 20]),
        ("r010_protocol.py", "R010", [11, 19]),
        ("r010_editable.py", "R010", [12, 12, 30]),
    ],
)
def test_fixture_triggers_exactly_its_rule(fixture, rule_id, lines):
    findings = lint_fixture(fixture)
    assert [f.rule_id for f in findings] == [rule_id] * len(lines)
    assert [f.line for f in findings] == lines


@pytest.mark.parametrize(
    "fixture",
    [
        "clean.py",
        "r007_interproc_ok.py",
        "r008_parallel_ok.py",
        "r009_determinism_ok.py",
        "r010_protocol_ok.py",
    ],
)
def test_clean_fixture_has_no_findings(fixture):
    assert lint_fixture(fixture) == []


def test_fixture_directory_walk_aggregates_all_rules():
    # lint_paths sees the real paths (under tests/), so the test-file
    # carve-out silences R003, R008 and R010; R007 has no test exemption
    # (dimension algebra holds in tests too) and must survive the walk,
    # proving interprocedural edges exist dir-wide; R009 degrades to its
    # test-corpus mode, which still flags the global-RNG call (line 16 of
    # the r009 fixture) but not the id() ordering or engine-closure cases
    findings = LintEngine().lint_paths([str(FIXTURES)])
    by_rule = {}
    for f in findings:
        by_rule.setdefault(f.rule_id, []).append(f)
    assert set(by_rule) == {
        "R001", "R002", "R004", "R005", "R006", "R007", "R009",
    }
    assert len(by_rule["R001"]) == 2
    assert len(by_rule["R007"]) == 1
    assert [f.line for f in by_rule["R009"]] == [16]
    assert "test corpus" in by_rule["R009"][0].message


# -- R009 test-corpus mode ----------------------------------------------------


TEST_RNG_SOURCE = """\
import random
import numpy as np


def test_unseeded_corpus():
    x = random.uniform(0.0, 1.0)
    rng = np.random.default_rng()
    return x, rng.normal(), np.random.rand(3)
"""


def test_r009_flags_global_rng_in_test_files():
    findings = LintEngine().lint_source(
        TEST_RNG_SOURCE, path="tests/test_corpus.py"
    )
    r009 = [f for f in findings if f.rule_id == "R009"]
    assert [f.line for f in r009] == [6, 7, 8]
    assert "random.uniform" in r009[0].message
    assert "default_rng" in r009[1].message
    assert "legacy numpy global RNG" in r009[2].message


def test_r009_allows_seeded_instances_in_test_files():
    src = (
        "import random\n"
        "import numpy as np\n\n\n"
        "def test_seeded_corpus():\n"
        "    rng = random.Random(7)\n"
        "    nrng = np.random.default_rng(7)\n"
        "    return rng.uniform(0.0, 1.0), nrng.normal()\n"
    )
    findings = LintEngine().lint_source(src, path="tests/test_corpus.py")
    assert [f for f in findings if f.rule_id == "R009"] == []


def test_r009_repo_corpora_are_seed_reproducible():
    """The real test/benchmark/netgen corpora carry no global-RNG use."""
    repo = Path(__file__).resolve().parent.parent
    paths = [
        str(repo / "tests"),
        str(repo / "benchmarks"),
        str(repo / "src" / "repro" / "netgen"),
    ]
    findings = LintEngine().lint_paths(paths)
    offenders = [
        f
        for f in findings
        if f.rule_id == "R009" and "fixtures" not in f.path
    ]
    assert offenders == [], [(f.path, f.line, f.message) for f in offenders]


# -- suppression syntax -------------------------------------------------------


def test_noqa_suppresses_matching_rule():
    src = "def f(spread):\n    return spread == 0.0  # repro: noqa[R001] sentinel\n"
    assert LintEngine().lint_source(src) == []


def test_noqa_with_wrong_rule_id_does_not_suppress():
    src = "def f(spread):\n    return spread == 0.0  # repro: noqa[R002]\n"
    findings = LintEngine().lint_source(src)
    assert [f.rule_id for f in findings] == ["R001"]


def test_bare_noqa_suppresses_everything_on_the_line():
    src = "def f(resistance, delay):\n    return resistance + delay == 0.0  # repro: noqa\n"
    assert LintEngine().lint_source(src) == []


def test_noqa_list_suppresses_multiple_rules():
    src = (
        "def f(resistance, delay):\n"
        "    return resistance + delay == 0.0  # repro: noqa[R001,R006]\n"
    )
    assert LintEngine().lint_source(src) == []


# -- engine behavior ----------------------------------------------------------


def test_syntax_error_reported_as_e999():
    findings = LintEngine().lint_source("def broken(:\n", path="bad.py")
    assert [f.rule_id for f in findings] == ["E999"]


def test_r003_exempts_test_files():
    src = "def helper():\n    assert 1 + 1 == 2\n"
    assert LintEngine().lint_source(src, path="tests/test_foo.py") == []
    assert len(LintEngine().lint_source(src, path="src/repro/foo.py")) == 1


def test_repro_source_tree_is_clean():
    """The CI gate: repro-lint src/ must exit clean on the shipped tree."""
    assert LintEngine().lint_paths([str(SRC)]) == []


def test_benchmarks_and_examples_are_clean():
    """The widened CI gate: benchmarks/ and examples/ lint clean too."""
    root = SRC.parent
    findings = LintEngine().lint_paths(
        [str(root / "benchmarks"), str(root / "examples")]
    )
    assert findings == []


# -- whole-program analysis: R007 vs the per-file R006 ------------------------


_CROSS_FUNCTION_MIX = """\
def total_delay(delay, extra):
    return delay + extra


def mix_caller(delay, resistance):
    return total_delay(delay, resistance)
"""


def test_r007_catches_cross_function_mix_that_r006_misses():
    """The tentpole regression: an Ω value passed into a ps-typed parameter
    is invisible to per-file name-based inference (``extra`` carries no
    declared dimension, and the call site has no arithmetic), but the
    interprocedural pass pins ``extra`` to ps from the callee's body and
    flags the call."""
    from repro.check.rules import DimensionRule

    # name-based R006 alone provably misses it...
    r006_only = LintEngine([DimensionRule()]).lint_source(
        _CROSS_FUNCTION_MIX, path="mix.py"
    )
    assert r006_only == []
    # ...while the full engine reports exactly the R007 call-site finding
    findings = LintEngine().lint_source(_CROSS_FUNCTION_MIX, path="mix.py")
    assert [f.rule_id for f in findings] == ["R007"]
    assert findings[0].line == 6
    assert "Ω" in findings[0].message and "ps" in findings[0].message


def test_r007_sees_calls_across_file_boundaries(tmp_path):
    callee = tmp_path / "callee.py"
    callee.write_text("def total_delay(delay, extra):\n    return delay + extra\n")
    caller = tmp_path / "caller.py"
    caller.write_text(
        "def mix_caller(delay, resistance):\n"
        "    return total_delay(delay, resistance)\n"
    )
    findings = LintEngine().lint_paths([str(tmp_path)])
    assert [f.rule_id for f in findings] == ["R007"]
    assert findings[0].path == str(caller)


def test_r006_uses_interprocedural_environment():
    """A parameter with contradictory evidence is erased, not guessed: the
    callee body stays silent under R006 while R007 indicts the caller."""
    findings = LintEngine().lint_source(_CROSS_FUNCTION_MIX, path="mix.py")
    assert not any(f.rule_id == "R006" for f in findings)


# -- CLI ----------------------------------------------------------------------


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("x = 1.0 == 1.0\n")
    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    assert lint_main([str(bad)]) == 1
    assert lint_main([str(good)]) == 0
    assert lint_main(["--list-rules"]) == 0
    assert lint_main(["--select", "R999", str(good)]) == 2
    assert lint_main([str(tmp_path / "no_such_file.py")]) == 2


def test_cli_select_and_json(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(acc=[]):\n    return 1.0 == 2.0\n")
    assert lint_main(["--select", "R004", "--format", "json", str(bad)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [f["rule"] for f in payload] == ["R004"]
    assert payload[0]["line"] == 1
    assert payload[0]["severity"] == "error"


def test_repro_msri_lint_subcommand(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("x = 1.0 != 2.0\n")
    assert repro_main(["lint", str(bad)]) == 1
    assert repro_main(["lint", "--select", "R003", str(bad)]) == 0


def test_cli_sarif_output(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("x = 1.0 == 1.0\n")
    assert lint_main(["--format", "sarif", str(bad)]) == 1
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    run = log["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert rule_ids == [rule.rule_id for rule in DEFAULT_RULES]
    (result,) = run["results"]
    assert result["ruleId"] == "R001"
    assert result["level"] == "error"
    loc = result["locations"][0]["physicalLocation"]
    assert loc["region"]["startLine"] == 1
    assert result["partialFingerprints"]["reproLintFingerprint/v1"]


def test_cli_sarif_clean_run_is_schema_shaped(tmp_path, capsys):
    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    assert lint_main(["--format", "sarif", str(good)]) == 0
    log = json.loads(capsys.readouterr().out)
    assert log["runs"][0]["results"] == []


def test_baseline_workflow_warn_then_error(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("x = 1.0 == 1.0\n")
    baseline = tmp_path / "baseline.json"
    # adopt the existing debt; exit 0
    assert lint_main(["--write-baseline", str(baseline), str(bad)]) == 0
    payload = json.loads(baseline.read_text())
    assert payload["version"] == 1 and len(payload["fingerprints"]) == 1
    capsys.readouterr()
    # baselined finding no longer fails the build
    assert lint_main(["--baseline", str(baseline), str(bad)]) == 0
    assert "baselined finding(s) suppressed" in capsys.readouterr().out
    # a new finding still fails, even with the same message elsewhere in file
    bad.write_text("x = 1.0 == 1.0\ny = 2.0 == 2.0\n")
    assert lint_main(["--baseline", str(baseline), str(bad)]) == 1
    out = capsys.readouterr().out
    assert "bad.py:2:" in out and "bad.py:1:" not in out


def test_baseline_identical_findings_are_not_conflated(tmp_path):
    """Two byte-identical violations get distinct occurrence fingerprints:
    baselining one must not grandfather in a second copy."""
    bad = tmp_path / "bad.py"
    bad.write_text("x = 1.0 == 1.0\n")
    baseline = tmp_path / "baseline.json"
    assert lint_main(["--write-baseline", str(baseline), str(bad)]) == 0
    bad.write_text("x = 1.0 == 1.0\nx = 1.0 == 1.0\n")
    assert lint_main(["--baseline", str(baseline), str(bad)]) == 1


def test_malformed_baseline_is_an_error(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("x = 1.0 == 1.0\n")
    baseline = tmp_path / "baseline.json"
    baseline.write_text('{"version": 99, "fingerprints": {}}')
    assert lint_main(["--baseline", str(baseline), str(bad)]) == 2


def test_changed_only_outside_scope(tmp_path, capsys):
    """--changed-only restricted to a scope with no changed files is a
    clean no-op (tmp_path is outside the repo's changed set)."""
    from repro.check.cli import run_lint

    scoped = tmp_path / "empty_scope"
    scoped.mkdir()
    assert run_lint([str(scoped)], changed_only="HEAD") == 0
    assert "no changed python files" in capsys.readouterr().out


def test_changed_files_reports_relative_paths():
    """Changed-file discovery returns repo paths scoped to the request."""
    from repro.check.cli import changed_files

    files = changed_files(["src"], base="HEAD")
    assert all(f.endswith(".py") for f in files)
    assert all(f.startswith("src") for f in files)


# -- contracts: enablement ----------------------------------------------------


def test_env_var_controls_contracts(monkeypatch):
    with monkeypatch.context() as m:
        m.setenv("REPRO_CHECK", "1")
        set_enabled(None)
        assert contracts_enabled()
        m.setenv("REPRO_CHECK", "0")
        set_enabled(None)
        assert not contracts_enabled()
    set_enabled(None)  # restore from the real environment


def test_checking_context_restores_previous_state():
    before = contracts_enabled()
    with checking():
        assert contracts_enabled()
        with checking(False):
            assert not contracts_enabled()
        assert contracts_enabled()
    assert contracts_enabled() == before


# -- contracts: injected violations ------------------------------------------


def _scalar_solution(cost, cap, lo=0.0, hi=1.0):
    from repro.tech.terminals import NEVER

    return Solution(
        cost=cost,
        cap=cap,
        q=NEVER,
        arr=None,
        diam=None,
        domain=IntervalSet.single(lo, hi),
    )


def test_injected_pareto_violation_is_caught():
    dominator = _scalar_solution(cost=1.0, cap=1.0)
    dominated = _scalar_solution(cost=2.0, cap=2.0)
    with pytest.raises(ContractViolation, match="strictly dominated"):
        contracts.verify_pareto([dominator, dominated])


def test_front_equivalence_catches_value_and_uid_drift():
    s = _scalar_solution(cost=1.0, cap=1.0)
    same = Solution(s.cost, s.cap, s.q, None, None, s.domain, uid=s.uid)
    contracts.verify_front_equivalence([s], [same])
    holey = Solution(
        s.cost, s.cap, s.q, None, None, IntervalSet.single(0.0, 0.5), uid=s.uid
    )
    with pytest.raises(ContractViolation, match="solution mismatch"):
        contracts.verify_front_equivalence([s], [holey])
    renumbered = Solution(s.cost, s.cap, s.q, None, None, s.domain)
    with pytest.raises(ContractViolation, match="solution mismatch"):
        contracts.verify_front_equivalence([s], [renumbered])


def test_incomparable_solutions_pass_pareto_check():
    cheap_but_heavy = _scalar_solution(cost=1.0, cap=2.0)
    costly_but_light = _scalar_solution(cost=2.0, cap=1.0)
    contracts.verify_pareto([cheap_but_heavy, costly_but_light])


def test_injected_negative_capacitance_is_caught():
    analyzer = ElmoreAnalyzer(y_net(), TECH)
    contracts.verify_nonnegative_caps(analyzer)  # healthy tree passes
    analyzer._down[1] = -0.5  # corrupt the Eq. 1 pass
    with pytest.raises(ContractViolation, match="Eq. 1"):
        contracts.verify_nonnegative_caps(analyzer)


def test_injected_negative_upstream_capacitance_is_caught():
    analyzer = ElmoreAnalyzer(y_net(), TECH)
    victim = next(v for v in range(len(analyzer.tree))
                  if analyzer.tree.parent(v) is not None)
    analyzer._up[victim] = -1e-3
    with pytest.raises(ContractViolation, match="Eq. 2"):
        contracts.verify_nonnegative_caps(analyzer)


def test_corrupt_pwl_is_caught():
    p = PWL([Segment(0.0, 1.0, 0.0, 1.0)])
    p._flat = (
        0.5, 2.0, 0.0, 1.0,
        0.0, 1.0, 0.0, 1.0,
    )  # out of order and overlapping
    with pytest.raises(ContractViolation, match="out of order"):
        contracts.verify_pwl(p)


def test_non_monotone_root_front_is_caught():
    t = Trace()
    good = [
        RootSolution(cost=1.0, ard=100.0, trace=t),
        RootSolution(cost=2.0, ard=90.0, trace=t),
    ]
    contracts.verify_root_front(good)
    bad = [
        RootSolution(cost=1.0, ard=100.0, trace=t),
        RootSolution(cost=2.0, ard=110.0, trace=t),
    ]
    with pytest.raises(ContractViolation, match="not strictly monotone"):
        contracts.verify_root_front(bad)


def test_ard_inconsistency_is_caught():
    tree = y_net()
    analyzer = ElmoreAnalyzer(tree, TECH)
    honest = ard(tree, TECH)
    contracts.verify_ard_consistency(honest, analyzer)  # healthy result passes
    forged = ARDResult(
        value=honest.value + 123.0,
        source=honest.source,
        sink=honest.sink,
        timing={},
    )
    with pytest.raises(ContractViolation, match="ARD inconsistency"):
        contracts.verify_ard_consistency(forged, analyzer)


# -- contracts: healthy end-to-end runs under REPRO_CHECK ---------------------


def test_ard_passes_contracts_end_to_end():
    with checking():
        result = ard(y_net(), TECH)
    assert result.is_finite


def test_msri_passes_contracts_end_to_end():
    with checking():
        result = insert_repeaters(
            two_pin_net(length=2000.0), TECH, MSRIOptions(library=LIB)
        )
    assert result.solutions
    # and the same run with the pairwise-pruner ablation
    with checking():
        result2 = insert_repeaters(
            two_pin_net(length=2000.0),
            TECH,
            MSRIOptions(library=LIB, use_divide_and_conquer=False),
        )
    assert result2.tradeoff() == result.tradeoff()


def test_pwl_operations_pass_contracts():
    with checking():
        f = PWL.linear(1.0, 2.0, 0.0, 5.0)
        g = PWL.from_breakpoints([0.0, 2.0, 5.0], [4.0, 1.0, 7.0])
        h = f.maximum(g).add_linear(0.5, 0.25).shift(1.0)
    assert not h.is_empty
