"""Generated-agent experiments: sweeps, two-agent debates, and metrics.

Single-agent sweeps run one seeded agent against a fixed scripted
counter-argument opponent across a u- or a-grid.  Two-agent debates
alternate turns between profile-configured agents that answer with the
template response, so whole runs are deterministic given the rng seed.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import astuple, dataclass, field
from typing import Optional

from .core import Role, UAProfile, left_sum, number_in, stance_from_log_odds
from .engine import AgentState, check_ranges, ingest_candidates, process_message, refresh_belief, rescale, take_turn
from .exceptions import ConfigError, ContractError
from .extraction import ExtractorPort, Message, parse_scripted_message
from .judgement import CandidateArgument, ScorerPort

# A seeded stance further than this from its target is reported.
SEED_TOLERANCE = 0.01

OPEN_MINDED = UAProfile(uptake=0.40, anchoring=0.20)
STUBBORN = UAProfile(uptake=0.10, anchoring=0.80)

PROFILE_PRESETS = {"open": OPEN_MINDED, "stubborn": STUBBORN}


def load_scripted_claims(text: str) -> list[CandidateArgument]:
    """Parse a seed-corpus blob in the scripted-claim grammar.  A CLAIM
    line with a malformed or out-of-range strength hint, or blank text, is
    a ConfigError that quotes the line, not a claim dropped in silence."""

    def reject(warning: str) -> None:
        raise ConfigError(f"seed corpus: {warning}")

    message = Message(text=text, author_role="seed_source", order=0)
    return parse_scripted_message(message, on_warning=reject)


# The sweep and debate runs build their agents through this module name,
# so a caller can patch it to watch them.
make_agent = AgentState


def seed_pool(seed_corpus: list[CandidateArgument], n: int, target: float) -> list[CandidateArgument]:
    """The corpus claims of the target's sign (all for 0); at least n."""
    pool = [c for c in seed_corpus if target == 0.0 or c.polarity == (1 if target > 0 else -1)]
    if len(pool) < n:
        raise ContractError(f"seed corpus provides {len(pool)} usable claims, need {n}")
    return pool


def seed_agent(
    agent: AgentState,
    seed_corpus: list[CandidateArgument],
    n: int,
    target: float,
    rng: Optional[random.Random] = None,
) -> AgentState:
    """Insert n seed records, then search a global strength scale so the
    seeded stance hits the target (or warn and keep full strength if the
    target exceeds what the corpus can reach).

    Bisection narrows the scale to two adjacent floats lo < hi, and the
    one whose stance is nearer the target wins (a tie keeps lo).  When
    the active seeds hold one polarity, every term p*log1p(scale*s*a)
    has the same sign, so the computed stance is monotone in the scale
    and no other scale comes nearer.  Only a mixed-polarity pool (as a
    target of 0 usually draws, or a second seeding of the other sign
    adds) scans the next 4096 ulps above lo for a scale that lands
    nearer, stopping at an exact hit.  The rule assumes the platform's
    log1p and tanh are monotone; a property test checks the factor
    bitwise against the full scan on single-polarity pools.  The stance
    at a scale is that of the left_sum of the active seeds' terms in id
    order, as the agent's fold sums them.  A target that is not a number
    in [-1, 1] raises ContractError before anything is stored."""
    _check_target(target)
    pool = seed_pool(seed_corpus, n, target)
    if rng is not None:
        rng.shuffle(pool)
    seeded = [
        CandidateArgument(
            claim=candidate.claim,
            polarity=candidate.polarity,
            role=Role.SEED,
            strength_hint=candidate.strength_hint,
        )
        for candidate in pool[:n]
    ]
    ingest_candidates(agent, seeded)

    anchoring = agent.profile.anchoring
    seeds = [r for r in agent.memory.records if r.role == Role.SEED]
    active_seeds = [r for r in seeds if r.active]

    def stance_at(scale: float) -> float:
        log_odds = left_sum(r.polarity * math.log1p(scale * r.strength * anchoring) for r in active_seeds)
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
            best, scale = min((abs(stance_at(c) - target), c) for c in (lo, hi))  # a tie keeps lo
            if len({r.polarity for r in active_seeds}) > 1:
                # Not monotone: scan nearby scales for one whose stance
                # lands on the target bitwise, so symmetric targets give
                # an exact initial gap.
                candidate = lo
                for _ in range(4096):
                    if best == 0.0:
                        break
                    candidate = math.nextafter(candidate, math.inf)
                    error = abs(stance_at(candidate) - target)
                    if error < best:
                        scale, best = candidate, error
            rescale(agent, seeds, scale)
            if abs(stance_at(1.0) - target) > SEED_TOLERANCE:
                agent.emit("warning", message=f"seeded stance missed target {target} beyond {SEED_TOLERANCE}")
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


def _check_target(target) -> None:
    if not number_in(target, -1.0, 1.0):
        raise ContractError(f"seed target {target!r} outside [-1, 1]")


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
    grid: tuple = (0.2, 0.4, 0.6, 0.8, 1.0)  # the u and a values the CLI sweeps, checked here

    def __post_init__(self):
        check_ranges(self, ("rounds", "seeds_per_side", "k"))
        _check_target(self.target)
        # A number in [0, the largest float] is finite and >= 0.
        controls = (*self.grid, self.fixed_u, self.fixed_a)
        if not self.grid or not all(number_in(value, 0.0, sys.float_info.max) for value in controls):
            raise ContractError(
                f"sweep grid {list(self.grid)!r} must be non-empty, and it, fixed_u and fixed_a finite numbers >= 0, "
                f"got fixed_u {self.fixed_u!r} and fixed_a {self.fixed_a!r}"
            )
        if len(set(self.grid)) < len(self.grid):  # each value names a run and its trace file
            raise ContractError(f"sweep grid {list(self.grid)!r} must hold distinct values")


def check_script_length(opponent_script: list[str], rounds: int) -> None:
    if len(opponent_script) < rounds:
        raise ContractError(f"opponent script has {len(opponent_script)} lines, need one per round ({rounds})")


def run_scripted_opponent_sweep(
    config: SweepConfig,
    grid: list[float],
    param: str,
    seed_corpus: list[CandidateArgument],
    opponent_script: list[str],
    scorer: Optional[ScorerPort] = None,
    extractor: Optional[ExtractorPort] = None,
) -> list[tuple[SweepRun, AgentState]]:
    """One seeded pro agent per grid value, against a fixed con script."""
    if param not in ("u", "a"):
        raise ContractError(f"sweep parameter must be 'u' or 'a', got {param!r}")
    check_script_length(opponent_script, config.rounds)
    runs = []
    for value in grid:
        if param == "u":
            profile = UAProfile(uptake=value, anchoring=config.fixed_a)
        else:
            profile = UAProfile(uptake=config.fixed_u, anchoring=value)
        agent = make_agent(
            f"sweep-{param}-{value}", config.topic, profile, config.theta, config.theta_self, config.k,
            scorer=scorer, extractor=extractor,
        )
        rng = random.Random(config.rng_seed)
        seed_agent(agent, seed_corpus, config.seeds_per_side, config.target, rng=rng)
        stances = [agent.belief.stance]
        for round_index in range(config.rounds):
            incoming = Message(text=opponent_script[round_index], author_role="opponent", order=agent.next_order())
            process_message(agent, incoming)
            take_turn(agent)
            stances.append(agent.belief.stance)
        runs.append((SweepRun(param=param, value=value, stances=stances), agent))
    return runs


@dataclass
class DebateConfig:
    topic: str
    pro_profile: UAProfile
    con_profile: UAProfile
    rounds: int = 15
    # The full bundled corpus; +-0.75 targets need all 14 claims per side
    # to be reachable at anchoring 0.2 with strengths <= 1.
    seeds_per_side: int = 14
    targets: tuple = (0.75, -0.75)  # seed targets of pro and con
    trials: int = 3
    rng_seed: int = 7
    theta: float = 0.60
    theta_self: float = 0.45
    k: int = 5

    def __post_init__(self):
        if len(self.targets) != 2:
            raise ContractError(f"a debate needs two seed targets (pro, con), got {self.targets!r}")
        check_ranges(self, ("rounds", "seeds_per_side", "trials", "k"))
        for target in self.targets:
            _check_target(target)


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


def run_two_agent_debate(
    config: DebateConfig,
    seed_corpus: list[CandidateArgument],
    scorer: Optional[ScorerPort] = None,
    extractor: Optional[ExtractorPort] = None,
) -> DebateResult:
    """Alternating-turn debate; pro speaks round 1.  Each turn is the
    speaker's take_turn (compose, then self-feedback), then the listener
    processes the message."""
    ports = {"scorer": scorer, "extractor": extractor}
    pro_target, con_target = config.targets
    all_series = []
    all_trials = []
    all_traces = []
    for trial in range(config.trials):
        rng = random.Random(config.rng_seed + trial)
        pro = make_agent("pro", config.topic, config.pro_profile, config.theta, config.theta_self, config.k, **ports)
        con = make_agent("con", config.topic, config.con_profile, config.theta, config.theta_self, config.k, **ports)
        seed_agent(pro, seed_corpus, config.seeds_per_side, pro_target, rng=rng)
        seed_agent(con, seed_corpus, config.seeds_per_side, con_target, rng=rng)
        series = [(pro.belief.stance, con.belief.stance)]
        for round_index in range(1, config.rounds + 1):
            speaker, listener = (pro, con) if round_index % 2 == 1 else (con, pro)
            text = take_turn(speaker)
            process_message(listener, Message(text=text, author_role="opponent", order=listener.next_order()))
            series.append((pro.belief.stance, con.belief.stance))
        all_series.append(series)
        all_trials.append(TrialStances(*series[0], *series[-1]))  # (pro, con) initial, then final
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
    """Per-trial debate metrics and their trial means: each field's
    left_sum in trial order over the number of trials."""
    if not trials:
        raise ContractError("compute_metrics needs at least one trial")
    per_trial = []
    for t in trials:
        initial_gap = abs(t.pro_init - t.con_init)
        final_gap = abs(t.pro_final - t.con_final)
        shift_pro = t.pro_final - t.pro_init
        shift_con = t.con_final - t.con_init
        crossing = float(_sign(t.pro_final) != _sign(t.pro_init) or _sign(t.con_final) != _sign(t.con_init))
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
    summary = MetricSummary(*(left_sum(column) / len(per_trial) for column in zip(*map(astuple, per_trial))))
    return summary, per_trial


def _sign(x: float) -> int:
    return (x > 0) - (x < 0)
