"""Tests for RL104 — architecture layer contracts."""

from repro.analysis.flow import PACKAGE_LAYERS, Project
from repro.analysis.flow.layers import check_layers


def _violations(sources):
    return check_layers(Project.from_sources(sources))


def _names(sources):
    return [violation.name for violation in _violations(sources)]


class TestLayerDirection:
    def test_upward_module_scope_import_flagged(self):
        names = _names({"repro.env.fake": (
            "from repro.serving.pipeline import ServingPipeline\n"
        )})
        assert names == ["repro.env.fake->repro.serving"]

    def test_downward_import_clean(self):
        assert _names({"repro.serving.fake": (
            "from repro.env.environment import EdgeCloudEnvironment\n"
        )}) == []

    def test_lazy_upward_import_is_the_escape_hatch(self):
        assert _names({"repro.env.fake": (
            "def build():\n"
            "    from repro.serving.pipeline import ServingPipeline\n"
            "    return ServingPipeline\n"
        )}) == []

    def test_same_layer_siblings_are_independent(self):
        names = _names({"repro.wireless.fake": (
            "from repro.models.profiler import Profiler\n"
        )})
        assert names == ["repro.wireless.fake->repro.models"]

    def test_intra_package_import_clean(self):
        assert _names({"repro.env.fake": (
            "from repro.env.workload import run_workload\n"
        )}) == []


class TestCycles:
    def test_two_module_cycle_flagged_once(self):
        names = _names({
            "repro.core.a": "import repro.core.b\n",
            "repro.core.b": "import repro.core.a\n",
        })
        assert names == ["cycle:repro.core.a->repro.core.b"]

    def test_three_module_cycle_flagged(self):
        names = _names({
            "repro.core.a": "import repro.core.b\n",
            "repro.core.b": "import repro.core.c\n",
            "repro.core.c": "import repro.core.a\n",
        })
        assert names == [
            "cycle:repro.core.a->repro.core.b->repro.core.c"
        ]

    def test_acyclic_chain_clean(self):
        assert _names({
            "repro.core.a": "import repro.core.b\n",
            "repro.core.b": "import repro.core.c\n",
            "repro.core.c": "x = 1\n",
        }) == []


class TestLayerTable:
    def test_common_is_the_bottom(self):
        assert PACKAGE_LAYERS["repro.common"] == 0
        assert all(rank >= 0 for rank in PACKAGE_LAYERS.values())

    def test_declared_dag_orders_the_paper_pipeline(self):
        assert PACKAGE_LAYERS["repro.env"] < PACKAGE_LAYERS["repro.core"]
        assert PACKAGE_LAYERS["repro.core"] \
            < PACKAGE_LAYERS["repro.serving"]
        assert PACKAGE_LAYERS["repro.serving"] \
            < PACKAGE_LAYERS["repro.evalharness"]
