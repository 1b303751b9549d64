"""The config rules: each key's rule sits beside its default (``data.key``).

The hand-written ``validate`` bodies these rules replaced are kept in
``tests/reference.py``; the hypothesis test holds the rules to them. On top
of them, ``SynthConfig`` refuses a ``rotation_angle`` list that does not
hold one angle per rotation plane and a ``translation`` list that does not
hold one shift per dimension, which the old code refused only while writing
the target table.
"""

import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from cclearn.data import CELL_BUDGET, SynthConfig
from cclearn.trainer import TrainConfig

ROOT = Path(__file__).resolve().parents[1]
ORACLES = [(SynthConfig, reference.synth_config_validate),
           (TrainConfig, reference.train_config_validate)]

# 0, +-1, each bound and its neighbours, 2 (the least num_classes), NaN,
# +-inf, bools, numpy scalars, strings and None
SPECIAL = [0, 1, -1, 2, 0.0, -0.0, 1.0, -1.0, 2.0, 5e-324, -5e-324, 0.9999999999999999,
           1.0000000000000002, 0.999, 2**70, math.nan, math.inf, -math.inf, True, False,
           np.int64(3), np.int64(-1), np.uint8(2), np.float64(0.5), np.float32(1.5),
           np.float64(math.nan), np.bool_(True), np.bool_(False), "1", "x", "", None]
SCALARS = st.one_of(st.sampled_from(SPECIAL), st.integers(-3, 300),
                    st.floats(allow_nan=True, allow_infinity=True))
# lists of any of those, and of good values only, at lengths that sometimes
# fit a default (4 classes, 8 rotation planes, 16 dimensions)
LISTS = st.one_of(
    st.lists(SCALARS, max_size=4),
    st.sampled_from([0, 1, 2, 3, 4, 8, 16]).flatmap(lambda n: st.lists(
        st.one_of(st.integers(1, 50), st.floats(-10, 10)), min_size=n, max_size=n)),
)
VALUES = st.one_of(SCALARS, LISTS.map(tuple), LISTS)


def lengths_fit(config) -> bool:
    """The list-length rule the rules add to an accepted ``SynthConfig``."""
    if not isinstance(config, SynthConfig):
        return True
    return all(not isinstance(v, (tuple, list)) or len(v) == n
               for v, n in ((config.rotation_angle, config.input_dim // 2),
                            (config.translation, config.input_dim)))


def refusal(check, config) -> str | None:
    """The message of the ValueError ``check(config)`` raises, else None."""
    try:
        check(config)
    except ValueError as exc:
        return str(exc)
    return None


def expected_ok(cls, oracle, changes: dict) -> bool:
    config = cls(**changes)
    return refusal(oracle, config) is None and lengths_fit(config)


@pytest.mark.parametrize("cls, oracle", ORACLES, ids=["SynthConfig", "TrainConfig"])
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_the_rules_refuse_exactly_where_the_hand_written_checks_did(cls, oracle, data):
    names = [f.name for f in fields(cls)]
    keys = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
    changes = {k: data.draw(VALUES, label=k) for k in keys}
    message = refusal(cls.validate, cls(**changes))
    assert (message is None) == expected_ok(cls, oracle, changes), message
    bad = [k for k in keys if not expected_ok(cls, oracle, {k: changes[k]})]
    rest = {k: v for k, v in changes.items() if k not in bad}
    # a refused config where one key alone is at fault; a key refused alone can
    # be right beside another (samples_per_class (1, 1) with num_classes 2)
    if not expected_ok(cls, oracle, changes) and len(bad) == 1 and expected_ok(cls, oracle, rest):
        assert message is not None and message.startswith(f"config key '{bad[0]}' must"), message


@pytest.mark.parametrize("cls", [SynthConfig, TrainConfig])
def test_the_first_bad_key_in_field_order_is_named(cls):
    bad = {"seed": -1, **({"num_classes": 1} if cls is SynthConfig else {"tau": 0.0})}
    first = next(f.name for f in fields(cls) if f.name in bad)
    with pytest.raises(ValueError, match=f"^config key '{first}' must be "):
        cls(**bad).validate()


@pytest.mark.parametrize("changes, message", [
    ({"input_dim": 4, "translation": (1.0, 2.0)}, "config key 'translation' must list 4 values, got 2"),
    ({"rotation_angle": (0.1, 0.2, 0.3)}, "config key 'rotation_angle' must list 8 values, got 3"),
    ({"input_dim": 7, "rotation_angle": (0.1, 0.2)}, "config key 'rotation_angle' must list 3 values, got 2"),
    ({"samples_per_class": (5, 5)}, "config key 'samples_per_class' must list 4 values, got 2"),
])
def test_list_keys_must_fit_the_data_shape(changes, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SynthConfig(**changes).validate()
    fitting = {**changes, "input_dim": 7, "rotation_angle": (0.1, 0.2, 0.3),
               "translation": (0.0,) * 7, "samples_per_class": (5,) * 4}
    SynthConfig(**fitting).validate()


@pytest.mark.parametrize("changes, name", [
    ({"num_classes": 2**70}, "num_classes"),
    ({"input_dim": 2**70}, "input_dim"),
    ({"samples_per_class": (2**70, 1, 1, 1)}, "samples_per_class"),
    # one or two cells past the budget
    ({"num_classes": 2, "input_dim": 1, "samples_per_class": (2**30, 2**30 + 1)}, "samples_per_class"),
    ({"num_classes": 2, "input_dim": 2**30 + 1, "samples_per_class": 1}, "input_dim"),
])
def test_a_table_past_the_cell_budget_names_its_largest_key(changes, name):
    with pytest.raises(ValueError, match=f"^config key '{name}' must keep a table within 2147483648 cells"):
        SynthConfig(**changes).validate()


def test_a_table_at_the_cell_budget_is_accepted():
    assert CELL_BUDGET == 2**31  # as README states it
    SynthConfig(num_classes=2, input_dim=1, samples_per_class=2**30).validate()
    SynthConfig(num_classes=2, input_dim=2**30, samples_per_class=1).validate()
    SynthConfig(num_classes=2**31, input_dim=1, samples_per_class=1).validate()


# ------------------------------------------------------------ the README tables

def readme_table(heading: str) -> dict[str, tuple[str, str]]:
    """key -> (default cell, allowed-values cell) of the README table under ``heading``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split(f"### {heading}\n\n", 1)[1].split("\n\n", 1)[0]
    rows = [line.split(" | ") for line in section.splitlines() if line.startswith("| `")]
    return {cells[0].strip("| `"): (cells[1], cells[2]) for cells in rows}


# the keys whose product SynthConfig.validate holds to CELL_BUDGET, and how README states it
BUDGETED = ("num_classes", "input_dim", "samples_per_class")
BUDGET = "; a table's rows × D at most 2**31"


def allowed(rule: tuple) -> str:
    """The allowed-values text of a ``key`` rule, as the README writes it."""
    kind, each, bounds = rule
    one, many = {"Integral": ("integer", "integers"), "Real": ("finite number", "finite numbers"),
                 "bool": ("`true` or `false`", None)}[kind.__name__]
    rule = " and ".join(f"{op} {b}" for op, b in bounds)
    noun = f"list of {many}" if each == "only" else one
    text = f"{noun} {rule}" if rule else noun
    return f"{text}, or a list of them" if each is True else text


@pytest.mark.parametrize("cls, heading", [(SynthConfig, "Synthetic data config keys"),
                                          (TrainConfig, "Training config keys")])
def test_readme_lists_every_key_its_default_and_its_rule(cls, heading):
    table = readme_table(heading)
    assert list(table) == [f.name for f in fields(cls)]
    for f in fields(cls):
        default, rule = table[f.name]
        assert json.loads(default) == json.loads(json.dumps(f.default)), f.name
        budget = BUDGET if cls is SynthConfig and f.name in BUDGETED else ""
        assert rule == allowed(f.metadata["rule"]) + budget, f.name
