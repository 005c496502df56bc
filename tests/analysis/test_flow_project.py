"""Tests for the flow analysis project model (import/call graph)."""

import ast

import pytest

from repro.analysis.flow import Project
from repro.common import ConfigError


def _project(**sources):
    return Project.from_sources(
        {name.replace("__", "."): text for name, text in sources.items()}
    )


class TestImportEdges:
    def test_module_scope_import_recorded(self):
        project = _project(repro__env__a="import repro.common\n")
        edges = project.modules["repro.env.a"].imports
        assert [(e.target, e.module_scope) for e in edges] == [
            ("repro.common", True)
        ]

    def test_function_scope_import_is_lazy(self):
        project = _project(repro__env__a=(
            "def build():\n"
            "    from repro.serving.pipeline import ServingPipeline\n"
            "    return ServingPipeline\n"
        ))
        edges = project.modules["repro.env.a"].imports
        assert [(e.target, e.module_scope) for e in edges] == [
            ("repro.serving.pipeline", False)
        ]

    def test_relative_import_resolved(self):
        project = _project(repro__env__a="from . import workload\n")
        edges = project.modules["repro.env.a"].imports
        assert edges[0].target == "repro.env"

    def test_external_imports_are_not_edges(self):
        project = _project(repro__env__a="import numpy as np\n")
        assert project.modules["repro.env.a"].imports == []


class TestAliases:
    def test_import_as_alias_expands(self):
        project = _project(repro__a="import numpy as np\n")
        assert project.expand_alias("repro.a", "np.random.default_rng") \
            == "numpy.random.default_rng"

    def test_from_import_alias_expands(self):
        project = _project(
            repro__a="from repro.common import make_rng as rng\n"
        )
        assert project.expand_alias("repro.a", "rng") \
            == "repro.common.make_rng"

    def test_unknown_root_passes_through(self):
        project = _project(repro__a="x = 1\n")
        assert project.expand_alias("repro.a", "foo.bar") == "foo.bar"


class TestCallResolution:
    def _resolve(self, project, module, source, owner=None):
        call = ast.parse(source, mode="eval").body
        assert isinstance(call, ast.Call)
        return project.resolve_call(module, owner, call)

    def test_local_def_wins(self):
        project = _project(repro__a=(
            "def cost(latency_ms):\n"
            "    return latency_ms\n"
        ))
        found = self._resolve(project, "repro.a", "cost(1.0)")
        assert found.key == ("repro.a", "cost")
        assert found.params == ("latency_ms",)

    def test_imported_symbol_resolves_across_modules(self):
        project = _project(
            repro__models__timing=(
                "def cost_of(latency_ms):\n"
                "    return latency_ms\n"
            ),
            repro__env__user=(
                "from repro.models.timing import cost_of\n"
            ),
        )
        found = self._resolve(project, "repro.env.user", "cost_of(2.0)")
        assert found.key == ("repro.models.timing", "cost_of")

    def test_self_method_resolves_within_class(self):
        project = _project(repro__a=(
            "class Engine:\n"
            "    def step(self):\n"
            "        return self.cost(1.0)\n"
            "    def cost(self, latency_ms):\n"
            "        return latency_ms\n"
        ))
        found = self._resolve(project, "repro.a", "self.cost(1.0)",
                              owner="Engine")
        assert found.qualname == "Engine.cost"

    def test_ambiguous_bare_name_resolves_to_none(self):
        project = _project(
            repro__a="def run():\n    pass\n",
            repro__b="def run():\n    pass\n",
        )
        assert self._resolve(project, "repro.c", "run()") is None

    def test_unique_method_name_fallback(self):
        project = _project(repro__a=(
            "class Clock:\n"
            "    def rewind(self, at_ms):\n"
            "        return at_ms\n"
        ))
        found = self._resolve(project, "repro.b", "anything.rewind(0.0)")
        assert found.qualname == "Clock.rewind"


class TestConstruction:
    def test_syntax_error_is_config_error(self):
        with pytest.raises(ConfigError):
            Project.from_sources({"repro.bad": "def broken(:\n"})

    def test_functions_indexed_by_qualname(self):
        project = _project(repro__a=(
            "class Outer:\n"
            "    def method(self):\n"
            "        def inner():\n"
            "            pass\n"
        ))
        assert ("repro.a", "Outer.method") in project.functions
        assert ("repro.a", "Outer.method.inner") in project.functions
