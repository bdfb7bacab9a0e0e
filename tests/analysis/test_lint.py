"""Unit tests for the determinism lint, plus the enforcement test that
keeps ``src/`` clean (the same gate CI runs)."""

import pathlib
import textwrap

from repro.analysis.baseline import Baseline
from repro.analysis.lint import lint_paths, lint_source, run_lint

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC_ROOT = REPO_ROOT / "src"
BASELINE = REPO_ROOT / "lint-baseline.json"


def rules_of(source):
    return [f.rule for f in lint_source(textwrap.dedent(source))]


class TestWallClock:
    def test_time_time_flagged(self):
        assert rules_of("""
            import time
            t = time.time()
        """) == ["wall-clock"]

    def test_perf_counter_flagged(self):
        assert "wall-clock" in rules_of("""
            import time
            t0 = time.perf_counter()
        """)

    def test_from_import_alias_resolved(self):
        assert "wall-clock" in rules_of("""
            from time import perf_counter as pc
            t0 = pc()
        """)

    def test_datetime_now_flagged(self):
        assert "wall-clock" in rules_of("""
            import datetime
            now = datetime.datetime.now()
        """)

    def test_pragma_suppresses(self):
        assert rules_of("""
            import time
            t = time.time()  # lint: allow(wall-clock)
        """) == []

    def test_sim_now_not_flagged(self):
        assert rules_of("""
            def f(sim):
                return sim.now
        """) == []


class TestUnseededRandom:
    def test_module_level_draw_flagged(self):
        assert rules_of("""
            import random
            x = random.random()
        """) == ["unseeded-random"]

    def test_import_alias_resolved(self):
        assert "unseeded-random" in rules_of("""
            import random as rnd
            x = rnd.randint(0, 9)
        """)

    def test_seeded_random_instance_allowed(self):
        assert rules_of("""
            import random
            rng = random.Random(42)
            x = rng.random()
        """) == []

    def test_unseeded_random_instance_flagged(self):
        assert "unseeded-random" in rules_of("""
            import random
            rng = random.Random()
        """)

    def test_numpy_global_draw_flagged(self):
        assert "unseeded-random" in rules_of("""
            import numpy
            x = numpy.random.rand(3)
        """)

    def test_numpy_seeded_generator_allowed(self):
        assert rules_of("""
            import numpy
            rng = numpy.random.default_rng(7)
        """) == []

    def test_system_random_always_flagged(self):
        assert "unseeded-random" in rules_of("""
            import random
            rng = random.SystemRandom(42)
        """)


class TestSetIteration:
    def test_for_over_set_call_flagged(self):
        assert rules_of("""
            def f(items):
                for x in set(items):
                    print(x)
        """) == ["set-iteration"]

    def test_for_over_set_literal_flagged(self):
        assert "set-iteration" in rules_of("""
            for x in {1, 2, 3}:
                print(x)
        """)

    def test_comprehension_over_set_flagged(self):
        assert "set-iteration" in rules_of("""
            def f(items):
                return [x for x in set(items)]
        """)

    def test_sorted_set_allowed(self):
        assert rules_of("""
            def f(items):
                for x in sorted(set(items)):
                    print(x)
        """) == []

    def test_dict_fromkeys_allowed(self):
        assert rules_of("""
            def f(items):
                for x in dict.fromkeys(items):
                    print(x)
        """) == []

    def test_pragma_suppresses(self):
        assert rules_of("""
            def f(items):
                for x in set(items):  # lint: allow(set-iteration)
                    print(x)
        """) == []


class TestEnforcement:
    def test_src_tree_is_clean_against_baseline(self):
        """The repository's own code passes the full rule registry against
        the committed baseline (the gate `make lint` and CI enforce): no
        new findings, no stale grandfathered entries."""
        run = run_lint([str(SRC_ROOT)], baseline=Baseline.load(BASELINE))
        assert run.findings == [], "\n".join(f.format() for f in run.findings)
        assert run.stale == [], "\n".join(e.format() for e in run.stale)

    def test_baseline_entries_all_justified(self):
        """Every grandfathered finding carries a non-empty justification,
        and today there is none: the last one, the controller's packet-in
        trace row, went with the trace log."""
        base = Baseline.load(BASELINE)
        assert base.entries == [], "\n".join(e.format() for e in base.entries)
        for entry in base.entries:
            assert entry.note.strip(), f"missing note: {entry.format()}"

    def test_findings_are_line_ordered_and_formatted(self):
        findings = lint_source(
            "import time\na = time.time()\nb = time.monotonic()\n",
            path="mod.py",
        )
        assert [f.line for f in findings] == [2, 3]
        assert findings[0].format().startswith("mod.py:2: error[wall-clock]")
