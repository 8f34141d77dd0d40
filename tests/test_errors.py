"""The one check of declared field types: JSON values and Python values alike."""

import math
from typing import Optional, Union

import numpy as np
import pytest

from anticipation import NetworkConfig, PhaseSpec, SimConfig, UsageRule
from anticipation.errors import ConfigError, Positive, _at_least, check


def sim_config(**overrides):
    fields = dict(instruments=2, phases=1, duration_mean=100.0, phase_plan=(PhaseSpec(1.0),),
                  usage_rules=(UsageRule(instrument=1, phase=0, probability=0.5),))
    return SimConfig(**{**fields, **overrides})


@pytest.mark.parametrize("build, message", [
    (lambda: NetworkConfig(input_dim=4, instruments=2, hidden=64.0),
     "hidden: expected an integer, got 64.0"),
    (lambda: sim_config(instruments="3"), 'instruments: expected an integer, got "3"'),
    (lambda: NetworkConfig(input_dim=4, instruments=2, dropout=True),
     "dropout: expected a number, got true"),
    (lambda: NetworkConfig(input_dim=4, instruments=2, encoder=64),
     "encoder: expected a list, got 64"),
    (lambda: NetworkConfig(input_dim=4, instruments=2, hidden=np.int64(0)),
     "hidden: expected an integer >= 1, got 0"),
    (lambda: NetworkConfig(input_dim=4, instruments=2, learning_rate=math.inf),
     "learning_rate: expected a finite number > 0, got Infinity"),
    (lambda: NetworkConfig(input_dim=4, instruments=2, learning_rate=10**400),
     "learning_rate: expected a number, got an integer too large for a float"),
    (lambda: NetworkConfig(input_dim=4, instruments=2, hidden=2**63),
     "hidden: expected an integer, got an integer too large for int64"),
    (lambda: sim_config(phase_plan=[PhaseSpec(-1.0)]),
     "phase_plan[0].length_mean: expected a finite number > 0, got -1.0"),
    (lambda: sim_config(usage_rules=(PhaseSpec(1.0),)),
     'usage_rules[0]: expected an object, got "PhaseSpec(length_mean=1.0, length_std=0.0)"'),
])
def test_config_built_in_python_refuses_a_wrong_type_naming_the_field(build, message):
    with pytest.raises(ConfigError) as caught:
        build()
    assert str(caught.value) == message
    assert isinstance(caught.value, ValueError)


def test_numpy_scalars_are_accepted():
    config = NetworkConfig(input_dim=np.int64(4), instruments=np.int32(2), hidden=np.int64(8),
                           encoder=(np.int64(8),), dropout=np.float64(0.1),
                           horizon=np.float32(2.0), seed=np.uint8(3))
    assert config.hidden == 8 and config.horizon == 2.0
    sim = sim_config(instruments=np.int64(2), duration_mean=np.float64(100.0),
                     usage_rules=(UsageRule(np.int64(1), np.int64(0), np.float64(0.5)),))
    assert sim.instruments == 2


def test_an_integer_is_a_number_but_a_bool_is_neither():
    check(3, Positive)
    check(np.int64(3), Positive)
    check(True, bool)
    for value, hint in ((True, _at_least(0)), (False, Positive), (1, bool), (3.0, int)):
        with pytest.raises(ConfigError):
            check(value, hint)


def test_a_record_is_a_dict_or_an_instance_of_its_dataclass():
    for value in ({"length_mean": 2.0}, PhaseSpec(2.0), {"length_mean": 2, "length_std": 0}):
        check(value, PhaseSpec)
    check([{"length_mean": 2.0}, PhaseSpec(2.0)], tuple[PhaseSpec, ...])
    with pytest.raises(ConfigError, match=r"^plan\[0\]: missing key\(s\): length_mean$"):
        check(({"length_std": 1.0},), tuple[PhaseSpec, ...], "plan")
    with pytest.raises(ConfigError, match="^unknown config key\\(s\\) in plan: speed$"):
        check({"length_mean": 2.0, "speed": 1}, PhaseSpec, "plan")
    with pytest.raises(ConfigError, match="^plan: expected an object"):
        check(UsageRule(0, 0, 1.0), PhaseSpec, "plan")


def test_check_returns_the_value_built_as_its_type():
    """Records of a dataclass come back as instances, lists as tuples, float fields as
    floats; an instance of the dataclass comes back as it is."""
    for value in (3, np.int64(3), np.float32(3.0)):
        assert type(check(value, Positive)) is float and check(value, Positive) == 3.0
    assert check(np.int64(3), _at_least(0)) == 3 and check(None, Optional[Positive]) is None
    spec = check({"length_mean": 2}, PhaseSpec)
    assert spec == PhaseSpec(2.0) and type(spec.length_mean) is float
    assert check([{"length_mean": 2}, spec], tuple[PhaseSpec, ...]) == (spec, spec)
    assert check(spec, PhaseSpec) is spec
    assert check({"a": [1, 2]}, {"a": tuple[Positive, ...]}) == {"a": (1.0, 2.0)}
    sim = check({"instruments": 1, "phases": 1, "duration_mean": 9,
                 "phase_plan": [{"length_mean": 1}]}, SimConfig, "sim")
    assert sim == SimConfig(1, 1, 9.0, phase_plan=(PhaseSpec(1.0),))


def test_check_refuses_an_integer_no_float_can_hold_and_fields_that_do_not_fit():
    with pytest.raises(ConfigError, match=r"^plan\.length_mean: expected a number, "
                                          "got an integer too large for a float$"):
        check({"length_mean": 10**400}, PhaseSpec, "plan")
    with pytest.raises(ConfigError, match="^sim: phase_plan has 0 entries for 1 phases$"):
        check({"instruments": 1, "phases": 1, "duration_mean": 9.0}, SimConfig, "sim")


def test_an_int_field_takes_what_int64_can_hold():
    for value in (2**63 - 1, -2**63, np.int64(-1), np.uint64(2**63 - 1)):
        assert check(value, int) == value
    for value in (2**63, -2**63 - 1, 10**400, np.uint64(2**63)):
        with pytest.raises(ConfigError, match="^n: expected an integer, got an integer too "
                                              "large for int64$"):
            check(value, int, "n")
    with pytest.raises(ConfigError, match="^i: expected a string or an integer, got an "
                                          "integer too large for int64$"):
        check(2**63, Union[str, int], "i")


def test_a_fixed_tuple_takes_one_item_of_each_type():
    pair = tuple[str, tuple[_at_least(0), ...]]
    assert check(["w", [2, 3]], pair) == ("w", (2, 3))
    for value, message in ((["w"], r"^p: expected a list of 2, got \["),
                           (["w", [2], 1], r"^p: expected a list of 2, got \["),
                           ([1, [2]], r"^p\[0\]: expected a string, got 1$"),
                           (["w", [-2]], r"^p\[1\]\[0\]: expected an integer >= 0, got -2$")):
        with pytest.raises(ConfigError, match=message):
            check(value, pair, "p")
