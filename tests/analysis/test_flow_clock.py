"""Tests for RL103 — virtual-clock write funnels."""

from repro.analysis.flow import APPROVED_CLOCK_FUNNELS, Project
from repro.analysis.flow.clockrule import check_clock_writes


def _names(sources):
    project = Project.from_sources(sources)
    return [violation.name for violation in check_clock_writes(project)]


class TestUnapprovedWrites:
    def test_clock_advance_outside_funnels_flagged(self):
        names = _names({"repro.serving.fake": (
            "def rush(env):\n"
            "    env.clock.advance(5.0)\n"
        )})
        assert names == ["rush:clock.advance"]

    def test_clock_reset_outside_funnels_flagged(self):
        names = _names({"repro.evalharness.fake": (
            "def rewind(env):\n"
            "    env.clock.reset()\n"
        )})
        assert names == ["rewind:clock.reset"]

    def test_alias_write_flagged(self):
        names = _names({"repro.env.fake": (
            "def sneak(env):\n"
            "    clock = env.clock\n"
            "    clock.advance(1.0)\n"
        )})
        assert names == ["sneak:clock.advance"]

    def test_bound_method_alias_flagged(self):
        names = _names({"repro.core.fake": (
            "def train(env):\n"
            "    clock_advance = env.clock.advance\n"
            "    clock_advance(1.0)\n"
        )})
        assert names == ["train:clock.advance"]

    def test_bound_method_of_clock_alias_flagged(self):
        names = _names({"repro.env.fake": (
            "def rewind_later(env, schedule):\n"
            "    clock = env.clock\n"
            "    schedule(callback=clock.reset)\n"
        )})
        assert names == ["rewind_later:clock.reset"]

    def test_local_stopwatch_write_flagged(self):
        names = _names({"repro.baselines.fake": (
            "from repro.common import Stopwatch\n"
            "def fresh():\n"
            "    stopwatch = Stopwatch()\n"
            "    stopwatch.reset()\n"
        )})
        assert names == ["fresh:clock.reset"]

    def test_now_ms_assignment_flagged(self):
        names = _names({"repro.env.fake": (
            "def warp(env):\n"
            "    env.clock.now_ms = 1000.0\n"
        )})
        assert names == ["warp:now_ms"]

    def test_now_ms_augmented_assignment_flagged(self):
        names = _names({"repro.env.fake": (
            "def creep(env):\n"
            "    env.clock.now_ms += 1.0\n"
        )})
        assert names == ["creep:now_ms"]

    def test_module_scope_write_flagged(self):
        names = _names({"repro.env.fake": (
            "from repro.common import Stopwatch\n"
            "CLOCK = Stopwatch()\n"
            "CLOCK.advance(1.0)\n"
        )})
        assert names == ["<module>:clock.advance"]


class TestApprovedFunnels:
    def test_kernel_dispatchers_clean(self):
        assert _names({"repro.sim.kernel": (
            "class EventKernel:\n"
            "    def advance_by(self, delta_ms):\n"
            "        self.clock.advance(delta_ms)\n"
            "    def advance_to(self, at_ms):\n"
            "        delta_ms = at_ms - self.clock.now_ms\n"
            "        if delta_ms > 0:\n"
            "            self.clock.advance(delta_ms)\n"
            "    def rewind(self):\n"
            "        self.clock.reset()\n"
        )}) == []

    def test_environment_writes_no_longer_approved(self):
        """The env funnels delegate to the kernel now; a direct write
        re-appearing there must be flagged, not grandfathered."""
        names = _names({"repro.env.environment": (
            "class EdgeCloudEnvironment:\n"
            "    def advance_clock(self, delta_ms):\n"
            "        self.clock.advance(delta_ms)\n"
        )})
        assert names == ["EdgeCloudEnvironment.advance_clock:clock.advance"]

    def test_stopwatch_primitive_clean(self):
        assert _names({"repro.common": (
            "class Stopwatch:\n"
            "    def advance(self, delta_ms):\n"
            "        self.now_ms = self.now_ms + delta_ms\n"
            "    def reset(self):\n"
            "        self.now_ms = 0.0\n"
        )}) == []

    def test_same_qualname_in_other_module_not_approved(self):
        names = _names({"repro.serving.fake": (
            "class EdgeCloudEnvironment:\n"
            "    def advance_clock(self, delta_ms):\n"
            "        self.clock.advance(delta_ms)\n"
        )})
        assert names == ["EdgeCloudEnvironment.advance_clock:clock.advance"]


class TestReadsAndNeighbors:
    def test_reading_the_clock_is_unrestricted(self):
        assert _names({"repro.evalharness.fake": (
            "def observe(env):\n"
            "    return env.clock.now_ms\n"
        )}) == []

    def test_calling_the_funnel_is_unrestricted(self):
        assert _names({"repro.env.workload": (
            "def run(env, request):\n"
            "    env.advance_clock_to(request.at_ms)\n"
        )}) == []

    def test_unrelated_advance_method_clean(self):
        assert _names({"repro.core.fake": (
            "def bump(cursor):\n"
            "    cursor.advance(1)\n"
        )}) == []


class TestFunnelTable:
    def test_table_covers_only_common_and_kernel(self):
        assert set(APPROVED_CLOCK_FUNNELS) == {
            "repro.common", "repro.sim.kernel",
        }
