"""Belief state, the log-odds update rule, and the stance transform.

An agent's belief about a proposition is a single log-odds value L.
Active argument records contribute additively: each record adds
``p * ln(1 + s * gamma)`` where p is polarity, s is strength, and gamma
is the anchoring weight for seed records or the uptake weight for
everything else.  Stance is the bounded readout ``S = 2*sigmoid(L) - 1``,
which equals ``tanh(L/2)``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .exceptions import ConfigError, ContractError

# Mapped Likert endpoints are +-1 and have infinite log-odds; priors are
# clipped here before inversion.
STANCE_CLIP = 0.995


class Role(str, Enum):
    SEED = "seed"
    SELF = "self"
    OPPONENT = "opponent"


@dataclass(frozen=True)
class UAProfile:
    """Uptake/anchoring control pair.

    uptake weights non-seed evidence, anchoring weights seed records (or
    the scaled initial log-odds in replay).
    """

    uptake: float
    anchoring: float

    def __post_init__(self):
        # A number in [0, the largest float] is finite and >= 0.
        if not all(number_in(value, 0.0, sys.float_info.max) for value in (self.uptake, self.anchoring)):
            raise ConfigError(
                f"uptake and anchoring must be finite numbers >= 0, got ({self.uptake!r}, {self.anchoring!r})"
            )


def stance_from_log_odds(log_odds: float) -> float:
    """Map log-odds to stance in [-1, 1]; equals 2*sigmoid(L) - 1."""
    return math.tanh(log_odds / 2.0)


def log_odds_from_stance(stance: float) -> float:
    """Inverse of the stance transform; requires |S| < 1."""
    if abs(stance) >= 1.0:
        raise ContractError(f"|stance| must be < 1 before inversion, got {stance}")
    return math.log((1.0 + stance) / (1.0 - stance))


def clip_stance(stance: float, bound: float = STANCE_CLIP) -> float:
    if not 0.0 <= bound < 1.0:  # a bound of 1 leaves +-1, which has no log-odds
        raise ConfigError(f"stance clip bound must be in [0, 1), got {bound!r}")
    return max(-bound, min(bound, stance))


@dataclass(frozen=True)
class BeliefState:
    log_odds: float
    stance: float

    @classmethod
    def from_log_odds(cls, log_odds: float) -> "BeliefState":
        return cls(log_odds=log_odds, stance=stance_from_log_odds(log_odds))

    @classmethod
    def zero(cls) -> "BeliefState":
        return cls(log_odds=0.0, stance=0.0)


def record_weight(role, profile: UAProfile) -> float:
    """Anchoring for seed records, uptake for debate/received records."""
    return profile.anchoring if role == Role.SEED else profile.uptake


def record_contribution(record, profile: UAProfile) -> float:
    """Log-odds contribution of one record: p * ln(1 + s * gamma)."""
    return record.polarity * math.log1p(record.strength * record_weight(record.role, profile))


def check_polarity(value, what: str = "polarity") -> None:
    """Reject a polarity other than -1 or +1; a boolean is not one, though
    True == 1."""
    if isinstance(value, bool) or value not in (-1, 1):
        raise ContractError(f"{what} {value} not in {{-1, +1}}")


def number_in(value, low, high) -> bool:
    """Whether value is an int or a float in [low, high]; a boolean and NaN
    are not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and low <= value <= high


def check_strength(value, what: str) -> None:
    """Reject a given strength that is not a finite number in [0, 1]."""
    if not (value is None or number_in(value, 0.0, 1.0)):
        raise ContractError(f"{what} {value!r} is not a finite number in [0, 1]")


def left_sum(terms) -> float:
    """Add the terms left to right from 0.0, the order Fold extends.
    Every float sum that reaches an output goes through here, not
    through builtin sum, which compensates rounding from Python 3.12 on."""
    total = 0.0
    for term in terms:
        total += term
    return total


class Fold:
    """The one fold of L: the active records' contributions by id, in id
    order, and their left_sum.

    A term under a new id extends the running sum; callers put new ids in
    increasing order.  A replaced or deleted term leaves the sum stale,
    and the next total folds every term again with left_sum.  Both give
    the same bits, since extending left_sum's total by one term is the
    left_sum with it."""

    def __init__(self):
        self.terms: dict[int, float] = {}
        self._total = 0.0  # None while stale

    def put(self, key: int, term: float) -> None:
        """Hold term under key: a new key extends the sum, and a held key's
        term is replaced, which leaves the sum stale."""
        self._total = None if key in self.terms or self._total is None else self._total + term
        self.terms[key] = term

    def delete(self, key: int) -> None:
        del self.terms[key]
        self._total = None

    def total(self) -> float:
        """The left_sum of the held terms in id order."""
        if self._total is None:
            self._total = left_sum(self.terms.values())
        return self._total


def _checked_contribution(record, profile: UAProfile) -> float:
    """record_contribution of an active record with a strength in [0, 1]
    and a polarity of -1 or +1; else ContractError."""
    if not record.active:
        raise ContractError("compute_log_odds received an archived record; pre-filter to the active set")
    if not number_in(record.strength, 0.0, 1.0):
        raise ContractError(f"record strength {record.strength!r} is not a finite number in [0, 1]")
    check_polarity(record.polarity, "record polarity")
    return record_contribution(record, profile)


def compute_log_odds(active_records, profile: UAProfile) -> float:
    """Batch recompute of L: the left_sum of the active records'
    contributions in insertion (id) order, each record checked first."""
    return left_sum(_checked_contribution(record, profile) for record in active_records)


def update_incremental(state: BeliefState, new_record, profile: UAProfile) -> BeliefState:
    """Add one new active record's contribution to an existing state.

    Only valid when nothing was archived or replaced since the last
    update; otherwise the caller must recompute from the active set.
    """
    return BeliefState.from_log_odds(state.log_odds + _checked_contribution(new_record, profile))
