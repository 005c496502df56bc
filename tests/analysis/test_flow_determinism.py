"""Tests for RL102 — determinism taint into the simulation core."""

import ast
from pathlib import Path

from repro.analysis.flow import APPROVED_WALL_CLOCK_READS, Project
from repro.analysis.flow.determinism import check_determinism

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _violations(sources):
    return check_determinism(Project.from_sources(sources))


def _names(sources):
    return [violation.name for violation in _violations(sources)]


class TestDirectSources:
    def test_wall_clock_in_protected_module_flagged(self):
        names = _names({"repro.core.fake": (
            "import time\n"
            "def step():\n"
            "    return time.time()\n"
        )})
        assert names == ["step:time.time"]

    def test_from_import_bare_name_flagged(self):
        names = _names({"repro.core.fake": (
            "from time import perf_counter\n"
            "def step():\n"
            "    return perf_counter()\n"
        )})
        assert names == ["step:time.perf_counter"]

    def test_same_source_in_unprotected_module_clean(self):
        assert _names({"repro.evalharness.fake": (
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"
        )}) == []

    def test_unfunneled_default_rng_flagged(self):
        names = _names({"repro.env.fake": (
            "import numpy as np\n"
            "def sample():\n"
            "    return np.random.default_rng().random()\n"
        )})
        assert names == ["sample:numpy.random.default_rng"]

    def test_default_rng_inside_common_is_the_funnel(self):
        assert _names({"repro.common": (
            "import numpy as np\n"
            "def make_rng(seed):\n"
            "    return np.random.default_rng(seed)\n"
        )}) == []

    def test_set_iteration_flagged(self):
        names = _names({"repro.serving.fake": (
            "def drain(pending):\n"
            "    for request in set(pending):\n"
            "        request.run()\n"
        )})
        assert names == ["drain:set-iteration"]

    def test_threading_reference_flagged(self):
        names = _names({"repro.core.fake": (
            "import threading\n"
            "def spawn(worker):\n"
            "    return threading.Thread(target=worker)\n"
        )})
        assert names == ["spawn:threading.Thread"]

    def test_generator_type_annotation_clean(self):
        assert _names({"repro.core.fake": (
            "import numpy as np\n"
            "def roll(rng: np.random.Generator):\n"
            "    return rng.random()\n"
        )}) == []


class TestTransitiveTaint:
    def test_protected_entry_point_via_unprotected_helper(self):
        violations = _violations({
            "repro.evalharness.util": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()\n"
            ),
            "repro.core.fake": (
                "from repro.evalharness.util import stamp\n"
                "def step():\n"
                "    return stamp()\n"
            ),
        })
        names = [violation.name for violation in violations]
        assert names == ["step:time.time"]
        assert "via" in violations[0].message

    def test_protected_to_protected_reports_only_the_callee(self):
        names = _names({
            "repro.core.inner": (
                "import time\n"
                "def now():\n"
                "    return time.time()\n"
            ),
            "repro.core.outer": (
                "from repro.core.inner import now\n"
                "def step():\n"
                "    return now()\n"
            ),
        })
        assert names == ["now:time.time"]

    def test_clean_call_graph_is_clean(self):
        assert _names({
            "repro.common": (
                "import numpy as np\n"
                "def make_rng(seed):\n"
                "    return np.random.default_rng(seed)\n"
            ),
            "repro.core.fake": (
                "from repro.common import make_rng\n"
                "def step(seed):\n"
                "    return make_rng(seed).random()\n"
            ),
        }) == []


def _engine(method, source="time.perf_counter"):
    return {"repro.core.engine": (
        "import time\n"
        "class AutoScale:\n"
        f"    def {method}(self):\n"
        f"        return {source}()\n"
    )}


class TestApprovedWallClockReads:
    def test_approved_perf_counter_reads_are_clean(self):
        assert _names(_engine("select_action")) == []
        assert _names(_engine("_cycle")) == []

    def test_perf_counter_in_another_core_function_fires(self):
        assert _names(_engine("observe_state")) == [
            "AutoScale.observe_state:time.perf_counter"
        ]

    def test_same_qualname_in_another_module_fires(self):
        names = _names({"repro.core.service": (
            "import time\n"
            "class AutoScale:\n"
            "    def select_action(self):\n"
            "        return time.perf_counter()\n"
        )})
        assert names == ["AutoScale.select_action:time.perf_counter"]

    def test_other_clock_in_an_approved_function_fires(self):
        assert _names(_engine("select_action", "time.time")) == [
            "AutoScale.select_action:time.time"
        ]

    def test_table_names_only_the_engine_overhead_timers(self):
        assert set(APPROVED_WALL_CLOCK_READS) <= {"repro.core.engine"}
        assert APPROVED_WALL_CLOCK_READS.get(
            "repro.core.engine", frozenset()
        ) <= {"AutoScale.select_action", "AutoScale._cycle"}

    def test_every_entry_matches_a_live_read(self):
        """A stale entry must be deleted: the table only shrinks."""
        project = Project.load([SRC])
        for module, qualnames in APPROVED_WALL_CLOCK_READS.items():
            for qualname in qualnames:
                function = project.functions[(module, qualname)]
                assert any(
                    isinstance(node, ast.Attribute)
                    and node.attr == "perf_counter"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "time"
                    for node in ast.walk(function.node)
                ), f"{module}.{qualname} reads no time.perf_counter"
