"""Tests for simlint's interprocedural layer: the project call graph, the
bottom-up effect fixpoint, and the async/thread-safety rules A1-A5.

Covers the resolution forms the call graph promises (methods via annotated
receivers, ``self.`` dispatch, closures, aliased imports), fixpoint
termination on mutual recursion, edge-kind-aware propagation (an
executor-wrapped call must NOT make its async caller blocking — that is
the sanctioned fix), the A-rule fixture drills with their call-chain
traces, and the full-repo lint performance guard.
"""

from pathlib import Path

import pytest

from repro.lint import LintEngine, all_rules
from repro.lint.asyncrules import build_async_analysis
from repro.lint.callgraph import (
    BLOCKING,
    NONDET,
    SPAWNS_THREAD,
    build_call_graph,
)
from repro.lint.effects import analyze_effects

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def run_fixture(*names, ignore_scope=True, root=FIXTURES):
    engine = LintEngine(root=root, rules=all_rules(),
                        ignore_scope=ignore_scope)
    return engine.run([FIXTURES / name for name in names])


def a_rules_of(report):
    return [f.rule for f in report.findings if f.rule.startswith("A")]


def load_graph(*paths, root=FIXTURES):
    engine = LintEngine(root=root)
    modules, failures = engine.load_modules([FIXTURES / p for p in paths])
    assert not failures
    return build_call_graph(modules), modules


# ---------------------------------------------------------------- call graph

class TestCallGraphResolution:
    @pytest.fixture(scope="class")
    def graph(self):
        graph, _modules = load_graph("callgraph_pkg")
        return graph

    def edges(self, graph, fid):
        return {callee for callee, _kind in graph.successors(fid)}

    def test_aliased_member_import_resolves(self, graph):
        # ``from util import slow_write as persist`` + ``persist(...)``
        assert "callgraph_pkg/util.py::slow_write" in \
            self.edges(graph, "callgraph_pkg/engine.py::Sink.emit")

    def test_module_alias_canonical_sink(self, graph):
        # ``import time as clock`` + ``clock.sleep`` is a blocking sink.
        facts = graph.facts["callgraph_pkg/util.py::jitter"]
        assert any((BLOCKING, "time.sleep") in site.sinks
                   for site in facts.sites)

    def test_closure_edge(self, graph):
        run = "callgraph_pkg/engine.py::Engine.run"
        flush = "callgraph_pkg/engine.py::Engine.run.flush"
        assert flush in self.edges(graph, run)

    def test_typed_attribute_method_dispatch(self, graph):
        # flush calls ``self.sink.emit`` through the annotated Sink field.
        flush = "callgraph_pkg/engine.py::Engine.run.flush"
        assert "callgraph_pkg/engine.py::Sink.emit" in \
            self.edges(graph, flush)

    def test_self_dispatch(self, graph):
        assert "callgraph_pkg/engine.py::Engine.tock" in \
            self.edges(graph, "callgraph_pkg/engine.py::Engine.ping")

    def test_annotated_parameter_dispatch(self, graph):
        # ``def ping_all(engine: Engine)`` resolves ``engine.ping()``.
        assert "callgraph_pkg/engine.py::Engine.ping" in \
            self.edges(graph, "callgraph_pkg/engine.py::ping_all")


class TestEffectFixpoint:
    @pytest.fixture(scope="class")
    def analysis(self):
        graph, _ = load_graph("callgraph_pkg")
        return analyze_effects(graph)

    def test_direct_blocking_sink(self, analysis):
        assert analysis.has("callgraph_pkg/util.py::slow_write", BLOCKING)
        assert analysis.sink("callgraph_pkg/util.py::slow_write",
                             BLOCKING) == "open"

    def test_transitive_blocking_through_closure_and_alias(self, analysis):
        # Engine.run -> flush -> Sink.emit -> slow_write -> open
        run = "callgraph_pkg/engine.py::Engine.run"
        assert analysis.has(run, BLOCKING)
        chain = analysis.chain(run, BLOCKING)
        assert chain[-1].endswith("-> open")
        assert any("slow_write" in step for step in chain)

    def test_nondet_effect(self, analysis):
        assert analysis.has("callgraph_pkg/util.py::entropy", NONDET)

    def test_unaffected_function_is_clean(self, analysis):
        tock = "callgraph_pkg/engine.py::Engine.tock"
        assert not analysis.has(tock, BLOCKING)
        assert not analysis.has(tock, NONDET)

    def test_executor_wrap_does_not_propagate_blocking(self):
        # a1_fixed wraps Store.fetch in run_in_executor: the async caller
        # must NOT inherit the blocking effect (that is the sanctioned fix),
        # but it does spawn onto the pool.
        graph, _ = load_graph("a1_fixed")
        analysis = analyze_effects(graph)
        handle = "a1_fixed/handler.py::Handler.handle"
        assert analysis.has("a1_fixed/storage.py::Store.fetch", BLOCKING)
        assert not analysis.has(handle, BLOCKING)
        assert analysis.has(handle, SPAWNS_THREAD)


class TestSccFixpointTermination:
    def _module_graph(self, tmp_path, source):
        target = tmp_path / "recursive.py"
        target.write_text(source)
        engine = LintEngine(root=tmp_path)
        modules, failures = engine.load_modules([target])
        assert not failures
        return build_call_graph(modules)

    def test_mutual_recursion_terminates_and_propagates(self, tmp_path):
        graph = self._module_graph(tmp_path, (
            "import time\n"
            "def ping(n):\n"
            "    if n:\n"
            "        pong(n - 1)\n"
            "def pong(n):\n"
            "    time.sleep(0)\n"
            "    ping(n)\n"))
        analysis = analyze_effects(graph)
        assert analysis.has("recursive.py::ping", BLOCKING)
        assert analysis.has("recursive.py::pong", BLOCKING)
        # The chain must terminate despite the cycle and name the sink.
        for fid in ("recursive.py::ping", "recursive.py::pong"):
            chain = analysis.chain(fid, BLOCKING)
            assert 0 < len(chain) <= 3
            assert chain[-1].endswith("-> time.sleep")

    def test_three_cycle_with_self_loop_terminates(self, tmp_path):
        graph = self._module_graph(tmp_path, (
            "import random\n"
            "def a(n):\n"
            "    b(n)\n"
            "    a(n)\n"
            "def b(n):\n"
            "    c(n)\n"
            "def c(n):\n"
            "    a(n)\n"
            "    return random.random()\n"))
        analysis = analyze_effects(graph)
        for name in ("a", "b", "c"):
            assert analysis.has(f"recursive.py::{name}", NONDET)


# -------------------------------------------------------------- rule drills

class TestA1BlockingOnEventLoop:
    def test_violation(self):
        report = run_fixture("a1_violation")
        assert a_rules_of(report) == ["A1", "A1"]
        transitive = next(f for f in report.findings
                          if "fetch" in f.message)
        # The chain names every hop down to the concrete sink.
        assert transitive.chain[0].startswith("Handler.handle")
        assert transitive.chain[-1].endswith(
            "-> pathlib.Path.read_bytes")
        direct = next(f for f in report.findings
                      if "time.sleep" in f.message)
        assert direct.chain[-1].endswith("-> time.sleep")

    def test_fixed(self):
        report = run_fixture("a1_fixed")
        assert a_rules_of(report) == []

    def test_suppressed(self):
        report = run_fixture("a1_suppressed.py")
        assert a_rules_of(report) == []
        assert report.suppressed >= 1


class TestA2CoroutineNeverAwaited:
    def test_violation(self):
        report = run_fixture("a2_violation.py")
        assert a_rules_of(report) == ["A2", "A2"]
        messages = " | ".join(f.message for f in report.findings)
        assert "discards it" in messages or "never awaited" in messages
        assert "pending" in messages

    def test_fixed(self):
        report = run_fixture("a2_fixed.py")
        assert a_rules_of(report) == []

    def test_suppressed(self):
        report = run_fixture("a2_suppressed.py")
        assert a_rules_of(report) == []
        assert report.suppressed >= 1


class TestA3AwaitUnderThreadingLock:
    def test_violation(self):
        report = run_fixture("a3_violation.py")
        assert a_rules_of(report) == ["A3", "A3"]
        for finding in report.findings:
            if finding.rule == "A3":
                assert "threading lock" in finding.message

    def test_fixed(self):
        report = run_fixture("a3_fixed.py")
        assert a_rules_of(report) == []

    def test_suppressed(self):
        report = run_fixture("a3_suppressed.py")
        assert a_rules_of(report) == []
        assert report.suppressed >= 1


class TestA4CrossThreadWrite:
    def test_violation(self):
        report = run_fixture("a4_violation.py")
        assert a_rules_of(report) == ["A4"]
        finding = next(f for f in report.findings if f.rule == "A4")
        assert "Monitor.beats" in finding.message
        # The chain shows both writers and the spawn evidence.
        assert any("event loop" in step for step in finding.chain)
        assert any("worker thread" in step for step in finding.chain)
        assert any("spawns" in step for step in finding.chain)

    def test_fixed(self):
        report = run_fixture("a4_fixed.py")
        assert a_rules_of(report) == []

    def test_suppressed(self):
        report = run_fixture("a4_suppressed.py")
        assert a_rules_of(report) == []
        assert report.suppressed >= 1


class TestA5AsyncioPrimitiveOffLoop:
    def test_violation(self):
        report = run_fixture("a5_violation.py")
        assert a_rules_of(report) == ["A5", "A5"]
        messages = " | ".join(f.message for f in report.findings)
        assert "asyncio.Queue" in messages      # Thread(target=...) escape
        assert "asyncio.Event" in messages      # run_in_executor escape

    def test_fixed(self):
        report = run_fixture("a5_fixed.py")
        assert a_rules_of(report) == []

    def test_suppressed(self):
        report = run_fixture("a5_suppressed.py")
        assert a_rules_of(report) == []
        assert report.suppressed >= 1


# ------------------------------------------------------------- reachability

class TestAsyncAnalysisReachability:
    def test_loop_and_thread_sides(self):
        engine = LintEngine(root=FIXTURES)
        modules, failures = engine.load_modules(
            [FIXTURES / "a5_violation.py"])
        assert not failures
        analysis = build_async_analysis(modules)
        assert "a5_violation.py::Bridge.kick" in analysis.loop_side
        assert "a5_violation.py::Bridge.feed" in analysis.thread_side
        assert "a5_violation.py::Bridge.poke" in analysis.thread_side
        assert "a5_violation.py::Bridge.feed" not in analysis.loop_side


# ---------------------------------------------------------------- perf guard

class TestLintPerformance:
    def test_full_repo_self_lint_under_30s(self, repo_self_lint):
        """The whole-program analysis must stay interactive: one cold full
        ``src`` lint with every rule (call graph + effect fixpoint
        included) in well under the CI budget."""
        report, elapsed = repo_self_lint
        assert elapsed < 30.0, f"self-lint took {elapsed:.1f}s"
        assert report.files_checked > 50
