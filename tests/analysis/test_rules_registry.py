"""Engine-level tests: registry, pragmas, baselines, reporters, CLI."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.baseline import Baseline, BaselineEntry, normalize_path
from repro.analysis.lint import lint_source, main as lint_main, run_lint
from repro.analysis.reporters import to_sarif
from repro.analysis.rules import (
    Severity,
    all_rules,
    explain,
    format_rule_table,
    get_rule,
    rule_ids,
)


def rules_of(source, **kwargs):
    return [f.rule for f in lint_source(textwrap.dedent(source), **kwargs)]


class TestRegistry:
    def test_full_registry_size_and_order(self):
        ids = rule_ids()
        assert len(ids) >= 8
        assert ids == sorted(ids)

    def test_expected_rules_present(self):
        ids = set(rule_ids())
        assert {
            "wall-clock", "unseeded-random", "set-iteration",
            "unnamed-rng-stream", "salted-hash", "mutable-default",
            "flowtable-encapsulation", "endpoint-leak", "process-global-mint",
        } <= ids

    def test_every_rule_fully_described(self):
        for rule in all_rules():
            assert rule.id and rule.summary
            assert rule.rationale.strip(), rule.id
            assert rule.example.strip(), rule.id
            assert rule.severity in (Severity.ERROR, Severity.WARNING)

    def test_get_rule_and_unknown(self):
        assert get_rule("wall-clock").id == "wall-clock"
        with pytest.raises(KeyError):
            get_rule("no-such-rule")

    def test_rule_table_lists_every_rule(self):
        table = format_rule_table()
        for rid in rule_ids():
            assert f"`{rid}`" in table


class TestExplain:
    @pytest.mark.parametrize("rid", rule_ids())
    def test_explain_every_registered_rule(self, rid, capsys):
        """`--explain <rule>` works for the whole registry (ISSUE gate)."""
        assert lint_main(["--explain", rid]) == 0
        out = capsys.readouterr().out
        assert rid in out
        assert "lint: allow" in out  # suppression help is part of the text

    def test_explain_unknown_rule_is_usage_error(self, capsys):
        assert lint_main(["--explain", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_explain_api_matches_rule_text(self):
        text = explain("salted-hash")
        rule = get_rule("salted-hash")
        assert rule.summary in text


class TestPragmas:
    def test_single_rule_allow(self):
        assert rules_of("""
            import time
            t = time.time()  # lint: allow(wall-clock)
        """) == []

    def test_multi_rule_allow_one_line(self):
        assert rules_of("""
            import time, random
            t = time.time(); x = random.random()  # lint: allow(wall-clock, unseeded-random)
        """) == []

    def test_allow_does_not_leak_to_other_rules(self):
        assert rules_of("""
            import time
            t = time.time()  # lint: allow(set-iteration)
        """) == ["wall-clock"]

    def test_allow_all(self):
        assert rules_of("""
            import time
            t = time.time()  # lint: allow(all)
        """) == []

    def test_file_allow_suppresses_everywhere(self):
        assert rules_of("""
            # lint: file-allow(wall-clock)
            import time
            a = time.time()
            b = time.monotonic()
        """) == []

    def test_file_allow_is_per_rule(self):
        assert rules_of("""
            # lint: file-allow(wall-clock)
            import time, random
            a = time.time()
            x = random.random()
        """) == ["unseeded-random"]


class TestEncapsulationRule:
    def test_private_access_outside_owner_flagged(self):
        findings = lint_source(
            "def f(table):\n    return table._entries\n",
            path="src/repro/net/switch.py",
        )
        assert [f.rule for f in findings] == ["flowtable-encapsulation"]

    def test_owner_file_untouched(self):
        findings = lint_source(
            "def f(self):\n    return self._entries\n",
            path="src/repro/net/flowtable.py",
        )
        assert findings == []

    def test_lookup_cache_attr_covered(self):
        findings = lint_source(
            "def f(t):\n    t._lookup_cache.clear()\n",
            path="src/repro/net/host.py",
        )
        assert [f.rule for f in findings] == ["flowtable-encapsulation"]

    def test_mutation_counter_is_read_through_the_public_property(self):
        private = lint_source(
            "def f(sw):\n    return sw.table._version\n",
            path="src/repro/net/switch.py",
        )
        assert [f.rule for f in private] == ["flowtable-encapsulation"]
        public = lint_source(
            "def f(sw):\n    return sw.table.version\n",
            path="src/repro/net/switch.py",
        )
        assert public == []


class TestProcessGlobalMintRule:
    """Ids are minted per deployment (``sim.ids``), never per process."""

    def test_a_counter_bound_at_module_or_class_level_is_flagged(self):
        findings = lint_source(textwrap.dedent("""
            import itertools
            from itertools import count

            _next_id = itertools.count(1)
            _next_cookie: object = count(0x4D49_0000)

            class Mint:
                uids = count()
        """), path="src/repro/core/channel.py")
        assert [(f.rule, f.line) for f in findings] == [
            ("process-global-mint", n) for n in (5, 6, 9)
        ]
        assert all(f.severity == Severity.ERROR for f in findings)

    def test_instance_counters_other_counts_and_tests_pass(self):
        clean = textwrap.dedent("""
            import itertools

            TOTAL = [1, 2, 1].count(1)

            class Simulator:
                def __init__(self):
                    self._counter = itertools.count()

                def ids(self, name, start=1):
                    return itertools.count(start)
        """)
        assert lint_source(clean, path="src/repro/sim/engine.py") == []
        source = "import itertools\n_ids = itertools.count(1)\n"
        assert lint_source(source, path="tests/net/helpers.py") == []
        assert len(lint_source(source, path="src/repro/net/packet.py")) == 1

    def test_src_has_none_and_the_baseline_grandfathers_none(self):
        root = Path(__file__).resolve().parents[2]
        run = run_lint([str(root / "src")], rules=[get_rule("process-global-mint")])
        assert run.findings == [] and run.suppressed == []
        baseline = json.loads((root / "lint-baseline.json").read_text())
        assert all(e["rule"] != "process-global-mint" for e in baseline["entries"])


class TestThirdPartyImportRule:
    """``repro`` imports the standard library, numpy and itself."""

    def test_imports_outside_the_budget_are_flagged_wherever_they_sit(self):
        findings = lint_source(textwrap.dedent("""
            import networkx as nx
            from scipy.sparse import csr_matrix
            import os, yaml.parser

            def lazy():
                import simpy
                from hypothesis import given
        """), path="src/repro/net/topology.py")
        assert [(f.rule, f.line) for f in findings] == [
            ("third-party-import", n) for n in (2, 3, 4, 7, 8)
        ]
        assert "'yaml.parser'" in findings[2].message
        assert all(f.severity == Severity.ERROR for f in findings)

    def test_stdlib_numpy_and_the_package_itself_pass(self):
        clean = textwrap.dedent("""
            from __future__ import annotations
            import os.path, sys
            import numpy as np
            from numpy.random import default_rng
            from collections import deque
            from repro.net import fat_tree
            from . import sibling
            from ..net.graph import Graph

            def lazy():
                import json
                from .. import taint
        """)
        assert lint_source(clean, path="src/repro/sdn/discovery.py") == []

    def test_the_budget_binds_the_package_not_its_tests(self):
        source = "import networkx\nimport pytest\n"
        assert lint_source(source, path="tests/net/graph_oracle.py") == []
        assert lint_source(source, path="benchmarks/bench_fluid.py") == []
        assert len(lint_source(source, path="src/repro/bench/x.py")) == 2

    def test_src_is_inside_the_budget_with_no_baseline_entry(self):
        root = Path(__file__).resolve().parents[2]
        run = run_lint([str(root / "src")], rules=[get_rule("third-party-import")])
        assert run.findings == [] and run.suppressed == []
        baseline = json.loads((root / "lint-baseline.json").read_text())
        assert all(e["rule"] != "third-party-import" for e in baseline["entries"])

    def test_a_fresh_interpreter_running_repro_never_loads_networkx(self):
        """Every subpackage imported, two CLIs run: the old dependency, which
        the test environment does have installed, is never pulled in."""
        root = Path(__file__).resolve().parents[2]
        script = textwrap.dedent("""
            import contextlib, importlib, io, pkgutil, runpy, sys
            import repro
            for mod in pkgutil.iter_modules(repro.__path__, "repro."):
                importlib.import_module(mod.name)
            for argv in (["repro.analysis", "--help"], ["repro.obs", "contract"]):
                sys.argv = argv
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    try:
                        runpy.run_module(argv[0], run_name="__main__")
                    except SystemExit as exit_:
                        assert not exit_.code, (argv, exit_.code)
                assert out.getvalue().strip(), argv
            assert "repro.core.controller" in sys.modules and "numpy" in sys.modules
            assert "networkx" not in sys.modules
        """)
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=120, env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        assert done.returncode == 0, done.stderr


class TestBaseline:
    def _write_bad_module(self, tmp_path, name="mod.py"):
        mod = tmp_path / name
        mod.write_text("import time\nt = time.time()\n")
        return mod

    def test_baseline_suppresses_matching_finding(self, tmp_path):
        mod = self._write_bad_module(tmp_path)
        base = Baseline(entries=[BaselineEntry(
            path=normalize_path(str(mod)), rule="wall-clock",
            context="t = time.time()", note="test fixture",
        )])
        run = run_lint([str(mod)], baseline=base)
        assert run.findings == []
        assert len(run.suppressed) == 1
        assert run.stale == []
        assert run.ok

    def test_entry_survives_line_drift(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("import time\n\n\n# moved down\nt = time.time()\n")
        base = Baseline(entries=[BaselineEntry(
            path=normalize_path(str(mod)), rule="wall-clock",
            context="t = time.time()", note="n",
        )])
        run = run_lint([str(mod)], baseline=base)
        assert run.findings == [] and run.ok

    def test_stale_entry_fails_the_run(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("x = 1\n")  # the grandfathered code is gone
        base = Baseline(entries=[BaselineEntry(
            path=normalize_path(str(mod)), rule="wall-clock",
            context="t = time.time()", note="n",
        )])
        run = run_lint([str(mod)], baseline=base)
        assert run.findings == []
        assert len(run.stale) == 1
        assert not run.ok

    def test_unscanned_entries_are_out_of_scope_not_stale(self, tmp_path):
        # Linting one clean file must not expire baseline entries that
        # describe files outside the linted path set.
        mod = tmp_path / "mod.py"
        mod.write_text("x = 1\n")
        base = Baseline(entries=[BaselineEntry(
            path="src/elsewhere.py", rule="wall-clock",
            context="t = time.time()", note="n",
        )])
        run = run_lint([str(mod)], baseline=base)
        assert run.stale == []
        assert run.ok

    def test_partial_update_keeps_unscanned_entries(self, tmp_path):
        mod = self._write_bad_module(tmp_path)
        elsewhere = BaselineEntry(
            path="src/elsewhere.py", rule="wall-clock",
            context="t = time.time()", note="n")
        base = Baseline(entries=[elsewhere])
        run = run_lint([str(mod)], baseline=base)
        updated = base.updated(run._paired, scanned=run._scanned)
        keys = {e.key for e in updated.entries}
        assert elsewhere.key in keys                  # carried over
        assert any(e.context == "t = time.time()"
                   and e.path == normalize_path(str(mod))
                   for e in updated.entries)          # added

    def test_update_baseline_adds_and_expires(self, tmp_path):
        mod = self._write_bad_module(tmp_path)
        stale_entry = BaselineEntry(
            path="src/gone.py", rule="wall-clock", context="old()", note="x")
        base = Baseline(entries=[stale_entry])
        run = run_lint([str(mod)], baseline=base)
        updated = base.updated(run._paired)
        keys = {e.key for e in updated.entries}
        assert stale_entry.key not in keys            # expired
        assert any(e.rule == "wall-clock" and e.context == "t = time.time()"
                   for e in updated.entries)          # added

    def test_update_preserves_existing_notes(self, tmp_path):
        mod = self._write_bad_module(tmp_path)
        base = Baseline(entries=[BaselineEntry(
            path=normalize_path(str(mod)), rule="wall-clock",
            context="t = time.time()", note="keep me",
        )])
        run = run_lint([str(mod)], baseline=base)
        updated = base.updated(run._paired)
        assert [e.note for e in updated.entries] == ["keep me"]

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "base.json"
        base = Baseline(entries=[BaselineEntry("src/a.py", "r", "ctx", "why")])
        base.save(path)
        again = Baseline.load(path)
        assert [e.key for e in again.entries] == [e.key for e in base.entries]
        assert again.entries[0].note == "why"

    def test_load_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValueError):
            Baseline.load(path)


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert lint_main([str(tmp_path), "--baseline", "none"]) == 0
        assert "lint: clean" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import time\nt = time.time()\n")
        assert lint_main([str(tmp_path), "--baseline", "none"]) == 1
        assert "wall-clock" in capsys.readouterr().out

    def test_select_runs_only_chosen_rules(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import time, random\nt = time.time()\nx = random.random()\n")
        assert lint_main([str(tmp_path), "--baseline", "none",
                          "--select", "unseeded-random"]) == 1
        out = capsys.readouterr().out
        assert "unseeded-random" in out and "wall-clock" not in out

    def test_select_unknown_rule_is_usage_error(self, tmp_path, capsys):
        assert lint_main([str(tmp_path), "--select", "nope"]) == 2
        assert "nope" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rid in rule_ids():
            assert rid in out

    def test_update_baseline_then_clean(self, tmp_path, capsys, monkeypatch):
        mod = tmp_path / "bad.py"
        mod.write_text("import time\nt = time.time()\n")
        base_path = tmp_path / "base.json"
        assert lint_main([str(mod), "--baseline", str(base_path),
                          "--update-baseline"]) == 0
        capsys.readouterr()
        assert lint_main([str(mod), "--baseline", str(base_path)]) == 0
        assert "1 baseline-suppressed" in capsys.readouterr().out

    def test_stale_baseline_fails_cli(self, tmp_path, capsys):
        mod = tmp_path / "ok.py"
        mod.write_text("x = 1\n")
        base_path = tmp_path / "base.json"
        Baseline(entries=[BaselineEntry(
            path=normalize_path(str(mod)), rule="wall-clock",
            context="t = time.time()", note="n")]).save(base_path)
        assert lint_main([str(mod), "--baseline", str(base_path)]) == 1
        assert "stale baseline entry" in capsys.readouterr().out


class TestSarif:
    def test_document_shape_and_rule_catalog(self, tmp_path):
        (tmp_path / "bad.py").write_text("import time\nt = time.time()\n")
        run = run_lint([str(tmp_path)])
        doc = to_sarif(run.findings)
        assert doc["version"] == "2.1.0"
        driver = doc["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        catalog = {r["id"] for r in driver["rules"]}
        assert catalog == set(rule_ids())
        results = doc["runs"][0]["results"]
        assert len(results) == 1
        res = results[0]
        assert res["ruleId"] == "wall-clock"
        assert res["level"] == "error"
        region = res["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 2
        # ruleIndex must point back into the embedded catalog
        assert driver["rules"][res["ruleIndex"]]["id"] == "wall-clock"

    def test_cli_sarif_output_is_valid_json(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import time\nt = time.time()\n")
        out_path = tmp_path / "report.sarif"
        assert lint_main([str(tmp_path), "--baseline", "none",
                          "--format", "sarif",
                          "--output", str(out_path)]) == 1
        doc = json.loads(out_path.read_text())
        assert doc["runs"][0]["results"][0]["ruleId"] == "wall-clock"
        # terminal still gets the human summary
        assert "1 error(s)" in capsys.readouterr().out
