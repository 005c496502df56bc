"""Tests for RL102 — determinism taint into the simulation core."""

from repro.analysis.flow import Project
from repro.analysis.flow.determinism import check_determinism


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
