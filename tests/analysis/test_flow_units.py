"""Tests for RL101 — cross-module unit propagation."""

from repro.analysis.flow import Project
from repro.analysis.flow.units import check_units, infer_name_unit


def _names(sources):
    project = Project.from_sources(sources)
    return [violation.name for violation in check_units(project)]


class TestNameInference:
    def test_last_unit_token_wins(self):
        assert infer_name_unit("tx_base_ms") == "ms"
        assert infer_name_unit("energy_mj") == "mj"
        assert infer_name_unit("request_count") is None

    def test_converter_names_declare_nothing(self):
        assert infer_name_unit("mj_to_joules") is None
        assert infer_name_unit("bytes_to_mbits") is None


class TestAdditiveMixes:
    def test_ms_plus_mj_flagged(self):
        names = _names({"repro.env.fake": (
            "def bad(latency_ms, energy_mj):\n"
            "    return latency_ms + energy_mj\n"
        )})
        assert names == ["bad:ms+mj"]

    def test_same_unit_sum_clean(self):
        assert _names({"repro.env.fake": (
            "def good(tx_ms, rx_ms):\n"
            "    total_ms = tx_ms + rx_ms\n"
            "    return total_ms\n"
        )}) == []

    def test_dimensionless_offset_clean(self):
        assert _names({"repro.env.fake": (
            "def good(latency_ms):\n"
            "    return latency_ms + 1.5\n"
        )}) == []

    def test_min_max_unify_like_addition(self):
        names = _names({"repro.env.fake": (
            "def bad(latency_ms, power_mw):\n"
            "    return min(latency_ms, power_mw)\n"
        )})
        assert names == ["bad:ms+mw"]


class TestEquationFive:
    def test_product_divided_by_1000_is_mj(self):
        assert _names({"repro.env.fake": (
            "def good(latency_ms, power_mw):\n"
            "    energy_mj = latency_ms * power_mw / 1000.0\n"
            "    return energy_mj\n"
        )}) == []

    def test_undivided_product_into_mj_name_flagged(self):
        names = _names({"repro.env.fake": (
            "def bad(latency_ms, power_mw):\n"
            "    energy_mj = latency_ms * power_mw\n"
            "    return energy_mj\n"
        )})
        assert names == ["bad:energy_mj:ms*mw->mj"]

    def test_product_meeting_mj_additively_flagged(self):
        names = _names({"repro.env.fake": (
            "def bad(latency_ms, power_mw, base_mj):\n"
            "    return base_mj + latency_ms * power_mw\n"
        )})
        assert names == ["bad:ms*mw+mj"]


class TestAssignments:
    def test_declared_unit_contradicted_by_value(self):
        names = _names({"repro.env.fake": (
            "def bad(power_mw):\n"
            "    drain_mj = power_mw\n"
            "    return drain_mj\n"
        )})
        assert names == ["bad:drain_mj:mw->mj"]

    def test_unit_propagates_through_unitless_local(self):
        names = _names({"repro.env.fake": (
            "def bad(latency_ms):\n"
            "    elapsed = latency_ms\n"
            "    energy_mj = elapsed\n"
            "    return energy_mj\n"
        )})
        assert names == ["bad:energy_mj:ms->mj"]


class TestCallsAndReturns:
    def test_keyword_argument_unit_mismatch(self):
        names = _names({"repro.env.fake": (
            "def bad(run, energy_mj):\n"
            "    run(deadline_ms=energy_mj)\n"
        )})
        assert names == ["bad:deadline_ms:mj->ms"]

    def test_cross_module_positional_argument(self):
        names = _names({
            "repro.models.timing": (
                "def cost_of(latency_ms):\n"
                "    return latency_ms\n"
            ),
            "repro.env.user": (
                "from repro.models.timing import cost_of\n"
                "def bad(energy_mj):\n"
                "    return cost_of(energy_mj)\n"
            ),
        })
        assert names == ["bad:latency_ms:mj->ms"]

    def test_return_contradicting_function_name(self):
        names = _names({"repro.env.fake": (
            "def total_mj(latency_ms):\n"
            "    return latency_ms\n"
        )})
        assert names == ["total_mj:return:ms->mj"]

    def test_converter_functions_exempt_from_return_check(self):
        assert _names({"repro.env.fake": (
            "def ms_to_seconds(latency_ms):\n"
            "    return latency_ms / 1000.0\n"
        )}) == []

    def test_called_name_carries_its_unit(self):
        names = _names({"repro.env.fake": (
            "def bad(engine):\n"
            "    energy_mj = engine.remote_nominal_ms()\n"
            "    return energy_mj\n"
        )})
        assert names == ["bad:energy_mj:ms->mj"]


class TestComparisons:
    def test_cross_unit_comparison_flagged(self):
        names = _names({"repro.env.fake": (
            "def bad(latency_ms, energy_mj):\n"
            "    return latency_ms < energy_mj\n"
        )})
        assert names == ["bad:ms<>mj"]

    def test_unknown_operand_silences(self):
        assert _names({"repro.env.fake": (
            "def good(latency_ms, budget):\n"
            "    return latency_ms < budget\n"
        )}) == []
