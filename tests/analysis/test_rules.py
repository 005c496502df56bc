"""Self-tests for every reprolint rule: each fires on a bad fixture
snippet and stays quiet on the corrected version of the same snippet."""

import pytest

from repro.analysis.runner import lint_source
from repro.analysis.rules import RULES


def rules_hit(source, rule_id=None):
    """The set of rule ids that fire on ``source``."""
    violations = lint_source(source, path="fixture.py")
    hits = {violation.rule for violation in violations}
    return hits if rule_id is None else rule_id in hits


class TestRL001UnitSuffixes:
    def test_unsuffixed_parameter_fires(self):
        assert rules_hit("def f(peak_power):\n    return peak_power\n",
                         "RL001")

    def test_unsuffixed_assignment_fires(self):
        assert rules_hit("total_energy = 3.0\n", "RL001")

    def test_unsuffixed_self_attribute_fires(self):
        snippet = (
            "class C:\n"
            "    def __init__(self):\n"
            "        self.latency = 1.0\n"
        )
        assert rules_hit(snippet, "RL001")

    def test_unsuffixed_loop_variable_fires(self):
        assert rules_hit("for rssi in values:\n    print(rssi)\n", "RL001")

    def test_wrong_unit_for_quantity_fires(self):
        # A unit token for a *different* quantity does not satisfy RL001.
        assert rules_hit("latency_mw = 2.0\n", "RL001")

    def test_suffixed_names_pass(self):
        snippet = (
            "def f(peak_power_mw, latency_ms, rssi_dbm, freq_mhz,\n"
            "      data_rate_mbps):\n"
            "    total_energy_mj = peak_power_mw * latency_ms / 1000.0\n"
            "    return total_energy_mj\n"
        )
        assert not rules_hit(snippet, "RL001")

    def test_each_quantity_word_maps_to_its_unit(self):
        for name in ("latency_ms", "energy_mj", "power_mw", "freq_mhz",
                     "frequency_mhz", "rssi_dbm", "rate_mbps"):
            assert not rules_hit(f"{name} = 1.0\n", "RL001"), name

    def test_violation_carries_the_offending_name(self):
        violations = lint_source("chosen_energy = 1.0\n", path="x.py")
        assert violations[0].name == "chosen_energy"

    @pytest.mark.parametrize("name", [
        "data_rate", "latency", "tx_power", "energy_term", "_energy_model",
        "learning_rate_decay",
    ])
    def test_quantity_names_without_a_unit_fire(self, name):
        assert rules_hit(f"{name} = 1.0\n", "RL001")

    @pytest.mark.parametrize("name", [
        "min_freq_ratio", "power_ratio", "latency_sigma", "power_sigma",
        "learning_rate",
    ])
    def test_dimensionless_names_pass(self, name):
        assert not rules_hit(f"{name} = 1.0\n", "RL001")

    def test_fires_in_every_package(self):
        snippet = (
            "class Link:\n"
            "    def __init__(self):\n"
            "        self._energy_model = None\n"
        )
        violations = lint_source(snippet,
                                 path="src/repro/wireless/planted.py")
        assert [(v.rule, v.name) for v in violations] == [
            ("RL001", "_energy_model")
        ]

    def test_message_names_the_fix(self):
        (violation,) = lint_source("latency = 1.0\n", path="x.py")
        assert "'_ms'" in violation.message
        assert "allowlist" not in violation.message


class TestRL002RngDiscipline:
    def test_import_random_fires(self):
        assert rules_hit("import random\n", "RL002")

    def test_from_random_import_fires(self):
        assert rules_hit("from random import gauss\n", "RL002")

    def test_np_random_call_fires(self):
        assert rules_hit(
            "import numpy as np\nx = np.random.normal(0.0, 1.0)\n",
            "RL002",
        )

    def test_np_random_default_rng_fires_outside_common(self):
        assert rules_hit(
            "import numpy as np\nrng = np.random.default_rng(0)\n",
            "RL002",
        )

    def test_default_rng_allowed_inside_common(self):
        snippet = "import numpy as np\nrng = np.random.default_rng(0)\n"
        violations = lint_source(snippet, path="src/repro/common.py")
        assert "RL002" not in {v.rule for v in violations}

    def test_generator_type_reference_passes(self):
        snippet = (
            "import numpy as np\n"
            "def f(seed):\n"
            "    return isinstance(seed, np.random.Generator)\n"
        )
        assert not rules_hit(snippet, "RL002")

    def test_threaded_rng_passes(self):
        snippet = (
            "def sample(rng):\n"
            "    return rng.normal(0.0, 1.0)\n"
        )
        assert not rules_hit(snippet, "RL002")


class TestRL003FloatEquality:
    def test_equality_against_float_literal_fires(self):
        assert rules_hit("ok = x == 1.5\n", "RL003")

    def test_inequality_against_float_literal_fires(self):
        assert rules_hit("ok = 0.3 != y\n", "RL003")

    def test_negative_literal_fires(self):
        assert rules_hit("ok = x == -2.5\n", "RL003")

    def test_chained_comparison_fires(self):
        assert rules_hit("ok = a < b == 1.5\n", "RL003")

    def test_zero_check_is_allowed(self):
        assert not rules_hit("std[std == 0.0] = 1.0\n", "RL003")

    def test_ordering_comparisons_pass(self):
        assert not rules_hit("ok = x <= 1.5 or y > 0.3\n", "RL003")

    def test_int_equality_passes(self):
        assert not rules_hit("ok = x == 3\n", "RL003")


class TestRL004ExceptionDiscipline:
    @pytest.mark.parametrize("exc", ["ValueError", "RuntimeError",
                                     "TypeError", "KeyError", "Exception"])
    def test_builtin_raise_fires(self, exc):
        assert rules_hit(f"raise {exc}('boom')\n", "RL004")

    def test_bare_class_raise_fires(self):
        assert rules_hit("raise ValueError\n", "RL004")

    def test_repro_error_passes(self):
        snippet = (
            "from repro.common import ConfigError\n"
            "raise ConfigError('bad parameter')\n"
        )
        assert not rules_hit(snippet, "RL004")

    def test_unknown_key_error_passes(self):
        snippet = (
            "from repro.common import UnknownKeyError\n"
            "raise UnknownKeyError('no such device')\n"
        )
        assert not rules_hit(snippet, "RL004")

    def test_not_implemented_allowed_for_abstract_methods(self):
        assert not rules_hit("raise NotImplementedError\n", "RL004")

    def test_re_raise_allowed(self):
        snippet = (
            "try:\n    f()\nexcept Exception:\n    raise\n"
        )
        assert not rules_hit(snippet, "RL004")


class TestRL005MutableDefaults:
    def test_list_default_fires(self):
        assert rules_hit("def f(items=[]):\n    return items\n", "RL005")

    def test_dict_default_fires(self):
        assert rules_hit("def f(table={}):\n    return table\n", "RL005")

    def test_constructor_call_default_fires(self):
        assert rules_hit("def f(items=list()):\n    return items\n",
                         "RL005")

    def test_kwonly_default_fires(self):
        assert rules_hit("def f(*, items=[]):\n    return items\n",
                         "RL005")

    def test_none_default_passes(self):
        assert not rules_hit("def f(items=None):\n    return items\n",
                             "RL005")

    def test_tuple_default_passes(self):
        assert not rules_hit("def f(items=()):\n    return items\n",
                             "RL005")


class TestRL006DataclassValidation:
    BAD = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Result:\n"
        "    latency_ms: float\n"
        "    energy_mj: float\n"
    )
    GOOD = BAD + (
        "    def __post_init__(self):\n"
        "        if self.latency_ms <= 0:\n"
        "            raise ConfigError('bad latency')\n"
    )

    def test_quantity_dataclass_without_post_init_fires(self):
        assert rules_hit(self.BAD, "RL006")

    def test_quantity_dataclass_with_post_init_passes(self):
        assert not rules_hit(self.GOOD, "RL006")

    def test_decorator_with_arguments_recognized(self):
        snippet = self.BAD.replace("@dataclass", "@dataclass(frozen=True)")
        assert rules_hit(snippet, "RL006")

    def test_dotted_decorator_recognized(self):
        snippet = (
            "import dataclasses\n"
            "@dataclasses.dataclass\n"
            "class P:\n"
            "    power_mw: float\n"
        )
        assert rules_hit(snippet, "RL006")

    def test_quantityless_dataclass_passes(self):
        snippet = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Label:\n"
            "    name: str\n"
            "    count: int\n"
        )
        assert not rules_hit(snippet, "RL006")

    def test_plain_class_passes(self):
        snippet = "class C:\n    latency_ms: float\n"
        assert not rules_hit(snippet, "RL006")


class TestRunnerBasics:
    def test_syntax_error_reported_as_rl000(self):
        violations = lint_source("def broken(:\n", path="bad.py")
        assert [v.rule for v in violations] == ["RL000"]

    def test_every_registered_rule_has_a_distinct_id(self):
        assert sorted(RULES) == [
            "RL001", "RL002", "RL003", "RL004", "RL005", "RL006",
        ]

    def test_rule_subset_selection(self):
        source = "raise ValueError('x')\ntotal_energy = 1.0\n"
        only_exceptions = lint_source(source, rule_ids=["RL004"])
        assert {v.rule for v in only_exceptions} == {"RL004"}
