"""Unit tests for the determinism lint, plus the enforcement test that
keeps ``src/`` clean (the same gate CI runs)."""

import pathlib
import textwrap

from repro.analysis.lint import lint_paths, lint_source

SRC_ROOT = pathlib.Path(__file__).resolve().parents[2] / "src"


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
    def test_src_tree_is_clean(self):
        """The repository's own code passes the full rule registry (the
        gate `make lint` and CI enforce); a pragma in the code is the only
        way to exempt a finding."""
        findings = lint_paths([str(SRC_ROOT)])
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_findings_are_line_ordered_and_formatted(self):
        findings = lint_source(
            "import time\na = time.time()\nb = time.monotonic()\n",
            path="mod.py",
        )
        assert [f.line for f in findings] == [2, 3]
        assert findings[0].format().startswith("mod.py:2: error[wall-clock]")
