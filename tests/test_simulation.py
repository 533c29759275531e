import inspect
import math
import random
import re

import pytest

from credence import config as config_mod
from credence.core import UAProfile
from credence.exceptions import ContractError
from credence.judgement import ServiceClient
from credence.replay import CalibrationGrid, build_replay_report
from credence.simulation import (
    OPEN_MINDED,
    STUBBORN,
    DebateConfig,
    SweepConfig,
    TrialStances,
    compute_metrics,
    load_scripted_claims,
    make_agent,
    run_scripted_opponent_sweep,
    run_two_agent_debate,
    seed_agent,
)

CORPUS = load_scripted_claims(config_mod.bundled_text("seeds.txt"))
SCRIPT = [
    line for line in config_mod.bundled_text("opponent_con.txt").splitlines() if line.startswith("CLAIM")
]


def test_bundled_corpus_shape():
    assert sum(c.polarity == 1 for c in CORPUS) == 14
    assert sum(c.polarity == -1 for c in CORPUS) == 14
    assert all(0.0 < c.strength_hint <= 1.0 for c in CORPUS)


def test_seed_agent_hits_target():
    agent = make_agent("x", "t", OPEN_MINDED, 0.6, 0.45)
    seed_agent(agent, CORPUS, 14, 0.75, rng=random.Random(1))
    assert agent.belief.stance == pytest.approx(0.75, abs=1e-12)


def test_seed_agent_negative_target_uses_con_claims():
    agent = make_agent("x", "t", STUBBORN, 0.6, 0.45)
    seed_agent(agent, CORPUS, 10, -0.75, rng=random.Random(2))
    assert agent.belief.stance == pytest.approx(-0.75, abs=1e-12)
    assert all(r.polarity == -1 for r in agent.memory)


def test_seed_agent_unreachable_target_warns():
    weak = UAProfile(uptake=0.4, anchoring=0.01)
    agent = make_agent("x", "t", weak, 0.6, 0.45)
    seed_agent(agent, CORPUS, 5, 0.99)
    assert any(e.kind == "warning" for e in agent.trace)
    assert 0.0 < agent.belief.stance < 0.99


def test_seed_agent_needs_enough_claims():
    agent = make_agent("x", "t", OPEN_MINDED, 0.6, 0.45)
    with pytest.raises(ContractError):
        seed_agent(agent, CORPUS, 15, 0.75)


@pytest.mark.parametrize("target", [math.nan, 1.5, -1.01, "0.5", None])
def test_seed_agent_rejects_a_target_outside_the_stance_range_before_storing(target):
    agent = make_agent("x", "t", OPEN_MINDED, 0.6, 0.45)
    with pytest.raises(ContractError, match=r"seed target .* outside \[-1, 1\]"):
        seed_agent(agent, CORPUS, 5, target)
    assert len(agent.memory) == 0 and agent.trace == []


def test_make_agent_rejects_thresholds_outside_the_unit_interval():
    for theta in (math.nan, -0.2):
        with pytest.raises(ContractError, match=r"theta must be in \[0, 1\]"):
            make_agent("x", "t", OPEN_MINDED, theta, 0.45)


def test_sweep_validates_inputs():
    config = SweepConfig(topic="t")
    with pytest.raises(ContractError):
        run_scripted_opponent_sweep(config, [0.2], "b", CORPUS, SCRIPT)
    with pytest.raises(ContractError):
        run_scripted_opponent_sweep(config, [0.2], "u", CORPUS, SCRIPT[:3])


@pytest.mark.parametrize("value", [2.5, 3.0, True])
def test_counts_must_be_integers(value):
    """A count that is a float or a boolean is refused when the agent or
    run config is built, not inside a run."""
    message = re.escape(f"must be an integer >= 1, got {value!r}")
    with pytest.raises(ContractError, match="k " + message):
        make_agent("x", "t", OPEN_MINDED, 0.6, 0.45, k=value)
    for name in ("rounds", "seeds_per_side", "k"):
        with pytest.raises(ContractError, match=f"{name} {message}"):
            SweepConfig(topic="t", **{name: value})
    for name in ("rounds", "seeds_per_side", "trials", "k"):
        with pytest.raises(ContractError, match=f"{name} {message}"):
            DebateConfig(topic="t", pro_profile=OPEN_MINDED, con_profile=STUBBORN, **{name: value})


@pytest.mark.parametrize(
    "setting", [{"grid": (math.nan,)}, {"grid": (0.2, math.inf)}, {"fixed_u": math.inf}, {"fixed_a": math.nan}, {"fixed_a": True}]
)
def test_sweep_controls_must_be_finite_when_built(setting):
    with pytest.raises(ContractError, match="fixed_u and fixed_a finite numbers >= 0"):
        SweepConfig(topic="t", **setting)


def test_sweep_trajectory_shape_and_determinism():
    config = SweepConfig(topic="t", rounds=4)
    first = run_scripted_opponent_sweep(config, [0.2, 0.6], "u", CORPUS, SCRIPT)
    again = run_scripted_opponent_sweep(config, [0.2, 0.6], "u", CORPUS, SCRIPT)
    assert [run.stances for run, _ in first] == [run.stances for run, _ in again]
    for run, _ in first:
        assert len(run.stances) == 5
        assert run.final_stance == run.stances[-1]


def test_higher_uptake_concedes_more():
    config = SweepConfig(topic="t", rounds=6)
    runs = run_scripted_opponent_sweep(config, [0.1, 0.8], "u", CORPUS, SCRIPT)
    assert runs[1][0].final_stance < runs[0][0].final_stance


def _with_new_defaults(monkeypatch, build) -> dict:
    """Give each parameter default of build a new object, as an edit of its
    signature would; returns parameter name -> new default."""
    function = build.__init__ if inspect.isclass(build) else build
    monkeypatch.setattr(function, "__defaults__", tuple(object() for _ in function.__defaults__))
    return {p.name: p.default for p in inspect.signature(function).parameters.values() if p.default is not p.empty}


@pytest.mark.parametrize("cls, section", [(SweepConfig, "sweep"), (DebateConfig, "debate")])
def test_run_config_defaults_match_config_defaults(monkeypatch, cls, section):
    """Each default of a run config is the config default of the key of
    its name, read from the class: a new default there needs no second
    edit."""
    new = _with_new_defaults(monkeypatch, cls)
    derived = config_mod._derive_defaults()[section]
    assert {name: derived[name] for name in new} == new


@pytest.mark.parametrize(
    "function, section, keys",
    [
        (
            build_replay_report,
            "replay",
            {"key": "key", "folds": "folds", "seed": "seed", "theta": "theta", "eps_weak": "eps_weak",
             "clip": "clip_bound"},
        ),
        (CalibrationGrid, "replay", {"u_grid": "u_values", "a_grid": "a_values"}),
        (ServiceClient, "ports", {"timeout": "timeout", "retries": "retries"}),
    ],
    ids=["build_replay_report", "CalibrationGrid", "ServiceClient"],
)
def test_replay_and_port_defaults_match_config_defaults(monkeypatch, function, section, keys):
    """`keys` maps each config key to the parameter that takes its value;
    the config default is read from that parameter's default."""
    new = _with_new_defaults(monkeypatch, function)
    derived = config_mod._derive_defaults()[section]
    assert {key: derived[key] for key in keys} == {key: new[name] for key, name in keys.items()}


def test_replay_keys_reach_the_parameters_their_defaults_come_from():
    """The CLI passes each replay key (but case_file) to the one parameter
    whose default DEFAULTS holds for it: both read config.PARAMETER_OF."""
    section = config_mod.DEFAULTS["replay"]
    passed = {}
    for build in (CalibrationGrid, build_replay_report):
        parameters = inspect.signature(build).parameters
        for name, value in config_mod.arguments_for(build, "replay", section).items():
            default = parameters[name].default
            assert value == (list(default) if isinstance(default, tuple) else default), name
            passed[name] = value
    assert len(passed) == len(section) - 1
    assert {"u_values", "a_values", "clip_bound"} <= set(passed)


def test_debate_config_validation():
    with pytest.raises(ContractError):
        DebateConfig(topic="t", pro_profile=OPEN_MINDED, con_profile=OPEN_MINDED, rounds=0)
    with pytest.raises(ContractError):
        DebateConfig(topic="t", pro_profile=OPEN_MINDED, con_profile=OPEN_MINDED, trials=0)


def test_debate_series_shape_and_determinism():
    config = DebateConfig(
        topic="t", pro_profile=OPEN_MINDED, con_profile=STUBBORN,
        rounds=3, seeds_per_side=14, trials=2,
    )
    result = run_two_agent_debate(config, CORPUS)
    assert len(result.series) == 2
    for series in result.series:
        assert len(series) == 4
    assert result.series == run_two_agent_debate(config, CORPUS).series


def test_debate_trials_differ_by_seed():
    config = DebateConfig(
        topic="t", pro_profile=OPEN_MINDED, con_profile=OPEN_MINDED,
        rounds=2, seeds_per_side=10, trials=2,
    )
    result = run_two_agent_debate(config, CORPUS)
    assert result.series[0] != result.series[1]  # different seed pools per trial


def test_compute_metrics_single_trial():
    trial = TrialStances(pro_init=0.75, con_init=-0.75, pro_final=0.19, con_final=-0.19)
    summary, per_trial = compute_metrics([trial])
    assert summary.abs_final_gap == pytest.approx(0.38)
    assert summary.gap_reduction == pytest.approx(1.12)
    assert summary.mean_abs_shift == pytest.approx(0.56)
    assert summary.centre_shift == pytest.approx(0.56)
    assert summary.crossing_rate == 0.0
    assert per_trial[0].convergence == summary.gap_reduction


def test_compute_metrics_detects_crossing():
    trial = TrialStances(pro_init=0.75, con_init=-0.75, pro_final=-0.05, con_final=-0.6)
    summary, _ = compute_metrics([trial])
    assert summary.crossing_rate == 1.0


def test_compute_metrics_needs_trials():
    with pytest.raises(ContractError):
        compute_metrics([])
