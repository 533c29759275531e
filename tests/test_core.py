import ast
import math
import random
from pathlib import Path

import pytest

import credence

from credence.core import (
    BeliefState,
    Role,
    UAProfile,
    clip_stance,
    compute_log_odds,
    left_sum,
    log_odds_from_stance,
    record_contribution,
    record_weight,
    stance_from_log_odds,
    update_incremental,
)
from credence.exceptions import ConfigError, ContractError
from credence.judgement import ArgumentRecord, embed_claim


def make_record(polarity, strength, role=Role.OPPONENT, claim="some claim text"):
    return ArgumentRecord(
        claim=claim, polarity=polarity, strength=strength, role=role, embedding=embed_claim(claim)
    )


def test_stance_transform_roundtrip():
    for log_odds in (-8.0, -1.0, -1e-6, 0.0, 0.3, 2.5, 9.0):
        stance = stance_from_log_odds(log_odds)
        assert -1.0 < stance < 1.0
        assert log_odds_from_stance(stance) == pytest.approx(log_odds, abs=1e-10)


def test_stance_zero_at_zero():
    assert stance_from_log_odds(0.0) == 0.0


def test_log_odds_rejects_saturated_stance():
    with pytest.raises(ContractError):
        log_odds_from_stance(1.0)
    with pytest.raises(ContractError):
        log_odds_from_stance(-1.5)


def test_clip_stance_bounds():
    assert clip_stance(0.9999) == 0.995
    assert clip_stance(-1.0) == -0.995
    assert clip_stance(0.3) == 0.3


def test_profile_validation():
    UAProfile(uptake=0.0, anchoring=0.0)
    with pytest.raises(ConfigError):
        UAProfile(uptake=-0.1, anchoring=0.5)
    with pytest.raises(TypeError):  # the control pair has no third field
        UAProfile(uptake=0.1, anchoring=0.5, confirmation_asymmetry=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_profile_rejects_non_finite_controls(value):
    with pytest.raises(ConfigError, match="finite"):
        UAProfile(uptake=value, anchoring=0.5)
    with pytest.raises(ConfigError, match="finite"):
        UAProfile(uptake=0.5, anchoring=value)


@pytest.mark.parametrize("controls", [(True, False), (0.5, True), (False, 0.5)])
def test_profile_rejects_boolean_controls(controls):
    with pytest.raises(ConfigError, match="finite numbers >= 0"):
        UAProfile(*controls)


def test_record_weight_by_role():
    profile = UAProfile(uptake=0.4, anchoring=0.2)
    assert record_weight(Role.SEED, profile) == 0.2
    assert record_weight(Role.SELF, profile) == 0.4
    assert record_weight(Role.OPPONENT, profile) == 0.4


def test_contribution_sign_and_value():
    profile = UAProfile(uptake=0.5, anchoring=0.1)
    pro = make_record(1, 0.8)
    con = make_record(-1, 0.8)
    assert record_contribution(pro, profile) == pytest.approx(math.log1p(0.4))
    assert record_contribution(con, profile) == -record_contribution(pro, profile)


def test_compute_log_odds_rejects_bad_records():
    profile = UAProfile(uptake=0.4, anchoring=0.2)
    archived = make_record(1, 0.5)
    archived.active = False
    with pytest.raises(ContractError):
        compute_log_odds([archived], profile)
    with pytest.raises(ContractError):
        compute_log_odds([make_record(1, 1.5)], profile)
    with pytest.raises(ContractError, match="strength True"):  # True == 1, but a boolean is no strength
        compute_log_odds([make_record(1, True)], profile)
    with pytest.raises(ContractError, match="polarity True"):  # True == 1, but a boolean is no polarity
        compute_log_odds([make_record(True, 0.5)], profile)
    with pytest.raises(ContractError, match="polarity True"):
        update_incremental(BeliefState.zero(), make_record(True, 0.5), profile)


def test_incremental_matches_batch():
    rng = random.Random(11)
    profile = UAProfile(uptake=0.35, anchoring=0.6)
    records = [
        make_record(rng.choice([-1, 1]), rng.random(), rng.choice(list(Role)), f"claim {i}")
        for i in range(30)
    ]
    state = BeliefState.zero()
    for record in records:
        state = update_incremental(state, record, profile)
    assert state.log_odds == pytest.approx(compute_log_odds(records, profile), abs=1e-12)


def test_left_sum_adds_left_to_right_from_zero():
    assert left_sum([0.1] * 10) == 0.9999999999999999  # a compensated sum gives 1.0
    assert left_sum([1e100, 1.0, -1e100]) == 0.0
    assert left_sum(iter([-0.0])) == 0.0 and type(left_sum([])) is float
    rng = random.Random(19)
    records = [make_record(rng.choice([-1, 1]), rng.random(), claim=f"claim {i}") for i in range(30)]
    profile = UAProfile(uptake=0.35, anchoring=0.6)
    state = BeliefState.zero()
    for record in records:
        state = update_incremental(state, record, profile)
    contributions = [record_contribution(r, profile) for r in records]
    assert state.log_odds == compute_log_odds(records, profile) == left_sum(contributions)


def test_the_package_calls_no_builtin_sum():
    """Builtin sum compensates float rounding from Python 3.12 on, so a
    float sum through it could read differently by interpreter; every
    float sum goes through core.left_sum instead."""
    package = Path(credence.__file__).parent
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"
    ]
    assert calls == []
