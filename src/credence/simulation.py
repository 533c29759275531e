"""Generated-agent experiments: sweeps, two-agent debates, and metrics.

Single-agent sweeps run one seeded agent against a fixed scripted
counter-argument opponent across a u- or a-grid.  Two-agent debates
alternate turns between profile-configured agents using the template
generator, so whole runs are deterministic given the rng seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

from .core import BeliefState, Role, UAProfile, stance_from_log_odds
from .engine import (
    AgentState,
    EngineConfig,
    TemplateGenerator,
    _stored_payload,
    ingest_candidate,
    process_message,
    compose_response,
    refresh_belief,
)
from .exceptions import ContractError
from .extraction import Message, ScriptedExtractor, parse_scripted_message
from .judgement import CandidateArgument

OPEN_MINDED = UAProfile(uptake=0.40, anchoring=0.20)
STUBBORN = UAProfile(uptake=0.10, anchoring=0.80)

PROFILE_PRESETS = {"open": OPEN_MINDED, "stubborn": STUBBORN}


def load_scripted_claims(text: str) -> list[CandidateArgument]:
    """Parse a seed-corpus blob in the scripted-claim grammar."""
    message = Message(text=text, author_role="seed_source", order=0)
    return parse_scripted_message(message)


def make_agent(
    agent_id: str,
    topic: str,
    profile: UAProfile,
    theta: float,
    theta_self: float,
    k: int = 5,
) -> AgentState:
    """Offline agent: scripted extractor, template generator, and no
    scorer, since every scripted claim carries its strength hint."""
    config = EngineConfig(
        extractor=ScriptedExtractor(),
        scorer=None,
        generator=TemplateGenerator(),
        theta=theta,
        theta_self=theta_self,
        k=k,
    )
    return AgentState(agent_id=agent_id, topic=topic, profile=profile, config=config)


def seed_agent(
    agent: AgentState,
    seed_corpus: list[CandidateArgument],
    n: int,
    target: float,
    rng: Optional[random.Random] = None,
    tolerance: float = 0.01,
) -> AgentState:
    """Insert n seed records, then bisect a global strength scale so the
    seeded stance hits the target (or warn and keep full strength if the
    target exceeds what the corpus can reach)."""
    pool = [c for c in seed_corpus if target == 0.0 or c.polarity == (1 if target > 0 else -1)]
    if len(pool) < n:
        raise ContractError(f"seed corpus provides {len(pool)} usable claims, need {n}")
    if rng is not None:
        pool = list(pool)
        rng.shuffle(pool)
    for candidate in pool[:n]:
        seeded = CandidateArgument(
            claim=candidate.claim,
            polarity=candidate.polarity,
            role=Role.SEED,
            strength_hint=candidate.strength_hint,
        )
        ingest_candidate(agent, seeded)

    anchoring = agent.profile.anchoring
    seeds = [r for r in agent.memory.records if r.role == Role.SEED]
    active_seeds = [r for r in seeds if r.active]

    def stance_at(scale: float) -> float:
        log_odds = sum(
            r.polarity * math.log1p(scale * r.strength * anchoring) for r in active_seeds
        )
        return stance_from_log_odds(log_odds)

    full = stance_at(1.0)
    if abs(full - target) > 1e-13:
        if target == 0.0:
            reachable = True
        else:
            reachable = (full > 0) == (target > 0) and abs(full) >= abs(target)
        if not reachable:
            agent.emit(
                "warning",
                message=f"seed target {target} unreachable (unscaled stance {full:.6f}); using scale 1.0",
            )
        else:
            lo, hi = 1e-12, 1.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mid <= lo or mid >= hi:
                    break
                if abs(stance_at(mid)) > abs(target):
                    hi = mid
                else:
                    lo = mid
            # The bisection interval is down to a few ulps; scan nearby
            # scales for one whose stance lands on the target bitwise,
            # so symmetric targets give an exact initial gap.
            scale = min((lo, hi), key=lambda c: abs(stance_at(c) - target))
            candidate = lo
            for _ in range(4096):
                candidate = math.nextafter(candidate, math.inf)
                error = abs(stance_at(candidate) - target)
                if error < abs(stance_at(scale) - target):
                    scale = candidate
                if error == 0.0:
                    break
            agent.memory.rescale(seeds, scale)
            for record in seeds:
                agent.emit("stored", **_stored_payload(record, agent.profile))
            if abs(stance_at(1.0) - target) > tolerance:
                agent.emit(
                    "warning", message=f"seeded stance missed target {target} beyond {tolerance}"
                )
    refresh_belief(agent)
    return agent


@dataclass
class SweepRun:
    param: str
    value: float
    stances: list[float]

    @property
    def final_stance(self) -> float:
        return self.stances[-1]


@dataclass
class SweepConfig:
    topic: str
    rounds: int = 15
    seeds_per_side: int = 10
    target: float = 0.99
    fixed_u: float = 0.4
    fixed_a: float = 0.70
    theta: float = 0.80
    theta_self: float = 0.50
    k: int = 5
    rng_seed: int = 7


def run_scripted_opponent_sweep(
    config: SweepConfig,
    grid: list[float],
    param: str,
    seed_corpus: list[CandidateArgument],
    opponent_script: list[str],
) -> list[tuple[SweepRun, AgentState]]:
    """One seeded pro agent per grid value, against a fixed con script."""
    if param not in ("u", "a"):
        raise ContractError(f"sweep parameter must be 'u' or 'a', got {param!r}")
    if len(opponent_script) < config.rounds:
        raise ContractError(
            f"opponent script has {len(opponent_script)} lines, need one per round ({config.rounds})"
        )
    runs = []
    for value in grid:
        if param == "u":
            profile = UAProfile(uptake=value, anchoring=config.fixed_a)
        else:
            profile = UAProfile(uptake=config.fixed_u, anchoring=value)
        agent = make_agent(
            f"sweep-{param}-{value}", config.topic, profile, config.theta, config.theta_self, config.k
        )
        rng = random.Random(config.rng_seed)
        seed_agent(agent, seed_corpus, config.seeds_per_side, config.target, rng=rng)
        stances = [agent.belief.stance]
        for round_index in range(config.rounds):
            incoming = Message(
                text=opponent_script[round_index], author_role="opponent", order=agent.next_order()
            )
            process_message(agent, incoming)
            message, _ = compose_response(agent)
            process_message(agent, message)
            stances.append(agent.belief.stance)
        runs.append((SweepRun(param=param, value=value, stances=stances), agent))
    return runs


@dataclass
class DebateConfig:
    topic: str
    pro_profile: UAProfile
    con_profile: UAProfile
    rounds: int = 15
    seeds_per_side: int = 10
    pro_target: float = 0.75
    con_target: float = -0.75
    trials: int = 3
    rng_seed: int = 7
    theta: float = 0.60
    theta_self: float = 0.45
    k: int = 5

    def __post_init__(self):
        if self.rounds < 1:
            raise ContractError("rounds must be >= 1")
        if self.trials < 1:
            raise ContractError("trials must be >= 1")


@dataclass
class TrialStances:
    pro_init: float
    con_init: float
    pro_final: float
    con_final: float


@dataclass
class MetricSummary:
    final_pro: float
    final_con: float
    abs_final_gap: float
    gap_reduction: float
    mean_abs_shift: float
    centre_shift: float
    crossing_rate: float

    @property
    def convergence(self) -> float:
        return self.gap_reduction


@dataclass
class DebateResult:
    config: DebateConfig
    series: list  # per trial: list of (pro_stance, con_stance), length rounds+1
    trials: list  # per trial: TrialStances
    traces: list  # per trial: (pro trace events, con trace events)
    metrics: MetricSummary = None
    per_trial_metrics: list = field(default_factory=list)


def run_two_agent_debate(config: DebateConfig, seed_corpus: list[CandidateArgument]) -> DebateResult:
    """Alternating-turn debate; pro speaks round 1.  Each turn is compose,
    listener processes, then speaker self-feedback."""
    all_series = []
    all_trials = []
    all_traces = []
    for trial in range(config.trials):
        rng = random.Random(config.rng_seed + trial)
        pro = make_agent("pro", config.topic, config.pro_profile, config.theta, config.theta_self, config.k)
        con = make_agent("con", config.topic, config.con_profile, config.theta, config.theta_self, config.k)
        seed_agent(pro, seed_corpus, config.seeds_per_side, config.pro_target, rng=rng)
        seed_agent(con, seed_corpus, config.seeds_per_side, config.con_target, rng=rng)
        series = [(pro.belief.stance, con.belief.stance)]
        for round_index in range(1, config.rounds + 1):
            speaker, listener = (pro, con) if round_index % 2 == 1 else (con, pro)
            message, _ = compose_response(speaker)
            process_message(listener, Message(text=message.text, author_role="opponent", order=listener.next_order()))
            process_message(speaker, Message(text=message.text, author_role="self", order=speaker.next_order()))
            series.append((pro.belief.stance, con.belief.stance))
        all_series.append(series)
        all_trials.append(
            TrialStances(
                pro_init=series[0][0],
                con_init=series[0][1],
                pro_final=series[-1][0],
                con_final=series[-1][1],
            )
        )
        all_traces.append((list(pro.trace), list(con.trace)))
    summary, per_trial = compute_metrics(all_trials)
    return DebateResult(
        config=config,
        series=all_series,
        trials=all_trials,
        traces=all_traces,
        metrics=summary,
        per_trial_metrics=per_trial,
    )


def compute_metrics(trials: list[TrialStances]) -> tuple[MetricSummary, list[MetricSummary]]:
    """Per-trial debate metrics and their trial average."""
    if not trials:
        raise ContractError("compute_metrics needs at least one trial")
    per_trial = []
    for t in trials:
        initial_gap = abs(t.pro_init - t.con_init)
        final_gap = abs(t.pro_final - t.con_final)
        shift_pro = t.pro_final - t.pro_init
        shift_con = t.con_final - t.con_init
        crossing = float(
            _sign(t.pro_final) != _sign(t.pro_init) or _sign(t.con_final) != _sign(t.con_init)
        )
        per_trial.append(
            MetricSummary(
                final_pro=t.pro_final,
                final_con=t.con_final,
                abs_final_gap=final_gap,
                gap_reduction=initial_gap - final_gap,
                mean_abs_shift=(abs(shift_pro) + abs(shift_con)) / 2.0,
                centre_shift=((t.pro_init - t.pro_final) + (t.con_final - t.con_init)) / 2.0,
                crossing_rate=crossing,
            )
        )
    n = len(per_trial)
    summary = MetricSummary(
        final_pro=sum(m.final_pro for m in per_trial) / n,
        final_con=sum(m.final_con for m in per_trial) / n,
        abs_final_gap=sum(m.abs_final_gap for m in per_trial) / n,
        gap_reduction=sum(m.gap_reduction for m in per_trial) / n,
        mean_abs_shift=sum(m.mean_abs_shift for m in per_trial) / n,
        centre_shift=sum(m.centre_shift for m in per_trial) / n,
        crossing_rate=sum(m.crossing_rate for m in per_trial) / n,
    )
    return summary, per_trial


def _sign(x: float) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0
