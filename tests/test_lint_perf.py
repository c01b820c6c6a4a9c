"""Fixture drills for the simlint performance pass (P1-P5).

Each rule gets the standard violation / suppressed / fixed triple.  The
fixtures sit outside the hot packages, so they define their own hot roots
(``Simulator.steps`` / ``FastPath.run``) — which also exercises the
call-graph side of the hotness model rather than the path heuristic.
"""

from pathlib import Path

from repro.lint import LintEngine, Severity, all_rules

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def run_fixture(*names, ignore_scope=True):
    engine = LintEngine(root=FIXTURES, rules=all_rules(),
                        ignore_scope=ignore_scope)
    return engine.run([FIXTURES / name for name in names])


def rules_of(report):
    return [finding.rule for finding in report.findings]


class TestP1HotLoopAllocation:
    def test_violation(self):
        report = run_fixture("p1_violation.py")
        assert rules_of(report) == ["P1", "P1"]
        messages = " | ".join(f.message for f in report.findings)
        assert "list" in messages
        assert "comprehension" in messages

    def test_suppressed(self):
        report = run_fixture("p1_suppressed.py")
        assert report.findings == []
        assert report.suppressed == 1

    def test_fixed(self):
        """Hoisted allocs, per-iteration data and cold loops all pass."""
        report = run_fixture("p1_fixed.py")
        assert report.findings == []


class TestP2UnhoistedInvariantLoad:
    def test_violation(self):
        report = run_fixture("p2_violation.py")
        assert rules_of(report) == ["P2", "P2"]
        messages = " | ".join(f.message for f in report.findings)
        assert "self.core.ports" in messages       # depth-2 chain
        assert "WINDOW" in messages                # module global

    def test_suppressed(self):
        report = run_fixture("p2_suppressed.py")
        assert report.findings == []
        assert report.suppressed == 1

    def test_fixed(self):
        """Hoisted loads pass; a load rebindable by an owner method call
        inside the loop must NOT be reported (hoisting it would change
        behaviour)."""
        report = run_fixture("p2_fixed.py")
        assert report.findings == []


class TestP3LinearMembership:
    def test_violation(self):
        report = run_fixture("p3_violation.py")
        assert rules_of(report) == ["P3", "P3"]
        messages = " | ".join(f.message for f in report.findings)
        assert "tuple" in messages                 # literal comparator
        assert "STOP_KINDS" in messages            # list-built module global

    def test_suppressed(self):
        report = run_fixture("p3_suppressed.py")
        assert report.findings == []
        assert report.suppressed == 1

    def test_fixed(self):
        report = run_fixture("p3_fixed.py")
        assert report.findings == []


class TestP4RepeatedInvariantIndexing:
    def test_violation(self):
        report = run_fixture("p4_violation.py")
        assert rules_of(report) == ["P4"]
        assert "counters['cycles']" in report.findings[0].message.replace(
            '"', "'")

    def test_suppressed(self):
        report = run_fixture("p4_suppressed.py")
        assert report.findings == []
        assert report.suppressed == 1

    def test_fixed(self):
        """Hoisted lookup passes; loop-varying keys and written-through
        subscripts stay unreported."""
        report = run_fixture("p4_fixed.py")
        assert report.findings == []


class TestP5UnguardedTelemetry:
    def test_violation(self):
        report = run_fixture("p5_violation.py")
        assert rules_of(report) == ["P5", "P5"]
        for finding in report.findings:
            assert finding.severity is Severity.ERROR

    def test_violation_evidence_chain(self):
        """The helper finding carries the FastPath.run -> _account path."""
        report = run_fixture("p5_violation.py")
        helper = [f for f in report.findings if "_account" in f.message]
        assert helper, [f.message for f in report.findings]
        chain = helper[0].chain
        assert any("FastPath.run" in hop for hop in chain)
        assert any("FastPath._account" in hop for hop in chain)

    def test_suppressed(self):
        report = run_fixture("p5_suppressed.py")
        assert report.findings == []
        assert report.suppressed == 1

    def test_fixed(self):
        """Inline guards, early returns and truthiness checks all count
        as domination."""
        report = run_fixture("p5_fixed.py")
        assert report.findings == []


class TestHotScope:
    def test_repo_tree_has_no_perf_findings(self, repo_self_lint):
        """The simulator hot paths were brought clean in this change; the
        committed tree must self-lint free of P findings."""
        report, _elapsed = repo_self_lint
        perf = [f for f in report.findings if f.rule.startswith("P")]
        assert perf == [], [
            (f.path, f.line, f.rule, f.message) for f in perf]
