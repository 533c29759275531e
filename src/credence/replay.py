"""Observed-evidence replay and uptake/anchoring calibration.

Each case starts from a mapped Likert prior, replays its received
evidence chronologically through the same judgement filter used by the
engine, and is scored against the observed final stance.  Calibration
grid-searches (u, a) per held-out fold and is compared with a no-change
baseline and a one-coefficient net-evidence linear baseline.  A report
fits the pooled cases and each outcome subgroup in one pass over the
grid: each u value's (a x case) error slab is built once, and every
subset reduces its own columns of it.
"""

from __future__ import annotations

import json
import logging
import math
import random
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    STANCE_CLIP,
    Role,
    UAProfile,
    as_float,
    check_polarity,
    check_strength,
    clip_stance,
    left_sum,
    log_odds_from_stance,
    number_in,
)
from .engine import split_lines
from .exceptions import ContractError
from .extraction import ExtractorPort, Message
from .judgement import ArgumentRecord, CandidateArgument, ScorerPort, check_one_line, judge
from .memory import MemoryStore

logger = logging.getLogger(__name__)

SUBGROUP_LABELS = ("aligned", "opposed", "weak_signal", "stable")


@dataclass
class EvidenceItem:
    """One received item: either pre-extracted (claim, polarity,
    strength) or raw text to be routed through an extractor port.
    A pre-extracted item without a strength is scored by the scorer."""

    claim: Optional[str] = None
    polarity: Optional[int] = None
    strength: Optional[float] = None
    text: Optional[str] = None

    def __post_init__(self):
        if self.text is not None:
            if not isinstance(self.text, str):
                raise ContractError(f"evidence text must be a string, got {self.text!r}")
            return
        if not isinstance(self.claim, str) or not self.claim.strip():
            raise ContractError(f"pre-extracted item needs a claim, got {self!r}")
        check_one_line(self.claim)
        check_polarity(self.polarity, "evidence polarity")
        check_strength(self.strength, "evidence strength")


@dataclass
class ReplayCase:
    participant: str
    group: str
    topic: str
    initial_likert: int
    final_likert: Optional[int] = None
    final_stance: Optional[float] = None
    evidence: list = field(default_factory=list)

    def __post_init__(self):
        for name in ("participant", "group", "topic"):
            if not isinstance(getattr(self, name), str):
                raise ContractError(f"{name} must be a string, got {getattr(self, name)!r}")
        _check_likert(self.initial_likert, "initial_likert")
        if self.final_likert is None and self.final_stance is None:
            raise ContractError("case needs final_likert or final_stance")
        if self.final_likert is not None:
            _check_likert(self.final_likert, "final_likert")
        stance = self.final_stance
        if stance is not None and not number_in(stance, -1.0, 1.0):
            raise ContractError(f"final_stance {stance!r} is not a finite number in [-1, 1]")

    @property
    def initial_stance(self) -> float:
        return likert_to_stance(self.initial_likert)

    @property
    def observed_final(self) -> float:
        if self.final_stance is not None:
            return self.final_stance
        return likert_to_stance(self.final_likert)

    @property
    def delta(self) -> float:
        return self.observed_final - self.initial_stance


def _check_likert(value, what: str) -> None:
    """Reject a Likert value other than an int in 1..6; a boolean is not
    one, though True == 1."""
    if isinstance(value, bool) or not isinstance(value, int) or not 1 <= value <= 6:
        raise ContractError(f"{what} {value!r} is not an integer in 1..6")


def likert_to_stance(value: int) -> float:
    """Linear map of the six-point scale onto [-1, 1]: S = (2v - 7) / 5."""
    _check_likert(value, "Likert value")
    return (2 * value - 7) / 5.0


@dataclass
class CalibrationGrid:
    # The grids of the replay protocol.
    u_values: tuple = (0.005, 0.01, 0.02, 0.035, 0.05, 0.075, 0.1, 0.15, 0.2, 0.3, 0.4, 0.6, 0.8)
    a_values: tuple = (0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0, 1.2, 1.5)

    def __post_init__(self):
        self.u_values, self.a_values = tuple(self.u_values), tuple(self.a_values)  # a config file gives lists
        for name, values in (("u", self.u_values), ("a", self.a_values)):
            finite = all(number_in(value, 0.0, sys.float_info.max) for value in values)
            if not values or not finite or list(values) != sorted(values) or len(set(values)) != len(values):
                raise ContractError(f"{name} grid {list(values)!r} must be non-empty, strictly increasing, finite and >= 0")


def accepted_records(
    case: ReplayCase,
    theta: float,
    scorer: Optional[ScorerPort] = None,
    extractor: Optional[ExtractorPort] = None,
) -> list[ArgumentRecord]:
    """Run the case's stream through judgement (scoring plus dedup at
    theta), one candidate at a time, and return the records that stay
    active, in stream order.  A raw-text item is extracted when its turn
    comes; an extractor's warnings about it (a malformed hint, a blank
    claim) go to the module logger, naming the participant and the item."""
    if not number_in(theta, 0.0, 1.0):
        raise ContractError(f"replay theta must be in [0, 1], got {theta!r}")
    store = MemoryStore()
    for index, item in enumerate(case.evidence):
        if item.text is not None:
            if extractor is None:
                raise ContractError("raw-text evidence items need an extractor port")
            message = Message(text=item.text, author_role="opponent", order=index)
            where = f"participant {case.participant}, evidence item {index}"
            candidates = extractor.extract(
                case.topic, message, on_warning=lambda text: logger.warning("%s: %s", where, text)
            )
        else:
            candidates = [CandidateArgument(item.claim, item.polarity, Role.OPPONENT, item.strength)]
        for candidate in candidates:
            judge(store, candidate, case.topic, scorer, theta, theta)
    return store.active_records()


def _predict(anchoring, prior_logits, evidence) -> np.ndarray:
    """The replay prediction kernel on float64 arrays (broadcast together):
    anchoring-scaled prior logits plus the evidence terms, read out as
    stances.  It equals stance_from_log_odds(a * l0 + ev) bitwise at every
    element: the product, sum and halving are correctly rounded in numpy
    as in Python, and the tanh is math.tanh (np.tanh differs in the last
    bit on about a quarter of inputs).  replay_case and every calibration
    grid slab go through it, so a cell equals a replay bitwise."""
    half = (anchoring * prior_logits + evidence) / 2.0
    # A memoryview yields the elements as floats one at a time, where
    # tolist would hold them all (about 4 MiB for a 10,000-case slab).
    return np.fromiter(map(math.tanh, memoryview(half.ravel())), np.float64, half.size).reshape(half.shape)


def replay_case(
    case: ReplayCase,
    profile: UAProfile,
    theta: float = 0.85,
    scorer: Optional[ScorerPort] = None,
    extractor: Optional[ExtractorPort] = None,
    clip_bound: float = STANCE_CLIP,
) -> float:
    """Predicted final stance for one case under one (u, a) profile: the
    anchoring-scaled prior logit plus the evidence term, as _case_terms
    forms them."""
    _, prior_logits, evidence, _ = _case_terms([case], [profile.uptake], theta, scorer, extractor, clip_bound)
    return float(_predict(profile.anchoring, prior_logits, evidence[:, 0])[0])


def net_evidence(
    case: ReplayCase,
    scorer: Optional[ScorerPort] = None,
    theta: float = 0.85,
    extractor: Optional[ExtractorPort] = None,
) -> float:
    """The left_sum of p*s over the records that survive the judgement
    filter, in the order they were received."""
    return left_sum(r.polarity * r.strength for r in accepted_records(case, theta, scorer, extractor))


def fit_linear_baseline(samples) -> float:
    """Closed-form OLS for the one-coefficient model delta = beta * E."""
    num = 0.0
    den = 0.0
    for evidence, delta in samples:
        num += evidence * delta
        den += evidence * evidence
    if den == 0.0:
        logger.warning("all net-evidence values are zero; linear baseline beta = 0")
        return 0.0
    return num / den


def linear_prediction(initial_stance, beta: float, evidence):
    """delta = beta * E on top of the initial stance, clipped to [-1, 1];
    elementwise on arrays."""
    return np.clip(initial_stance + beta * evidence, -1.0, 1.0)


def assign_folds(cases: list[ReplayCase], key: str = "group", folds: int = 5, seed: int = 42) -> list[int]:
    """Deal shuffled key values round-robin into folds; cases sharing a
    key always land in the same fold."""
    if key not in ("group", "topic"):
        raise ContractError(f"fold key must be 'group' or 'topic', got {key!r}")
    if isinstance(folds, bool) or not isinstance(folds, int) or folds < 1:
        raise ContractError(f"folds must be an integer >= 1, got {folds!r}")
    keys = sorted({getattr(case, key) for case in cases})
    if len(keys) < folds:
        logger.warning("only %d distinct %s keys; using %d folds", len(keys), key, len(keys))
        folds = len(keys)
    rng = random.Random(seed)
    rng.shuffle(keys)
    fold_of_key = {value: index % folds for index, value in enumerate(keys)}
    return [fold_of_key[getattr(case, key)] for case in cases]


def _check_eps_weak(eps_weak: float) -> None:
    if not number_in(eps_weak, 0.0, sys.float_info.max):
        raise ContractError(f"eps_weak must be >= 0 and finite, got {eps_weak!r}")


def classify_subgroup(case: ReplayCase, evidence: float, eps_weak: float = 0.05) -> str:
    """Outcome-conditioned diagnostic label for one case."""
    _check_eps_weak(eps_weak)
    if case.delta == 0.0:
        return "stable"
    if abs(evidence) < eps_weak:
        return "weak_signal"
    if (case.delta > 0) == (evidence > 0):
        return "aligned"
    return "opposed"


@dataclass
class EvaluationResult:
    rmse: float
    mean_abs_movement: float


def evaluate(cases: list[ReplayCase], predictions) -> EvaluationResult:
    if len(cases) != len(predictions):
        raise ContractError("cases and predictions have different lengths")
    finals = np.array([c.observed_final for c in cases])
    movements = np.abs(finals - np.array([c.initial_stance for c in cases]))  # the bits of abs(c.delta)
    return _evaluate(finals, movements, predictions)


def _evaluate(finals, movements, predictions) -> EvaluationResult:
    """evaluate over per-case arrays: observed finals and |delta|."""
    preds = np.asarray(predictions, dtype=float)
    rmse = float(np.sqrt(np.mean((preds - finals) ** 2))) if len(finals) else 0.0
    movement = float(np.mean(movements)) if len(finals) else 0.0
    return EvaluationResult(rmse=rmse, mean_abs_movement=movement)


# ---------------------------------------------------------------------------
# Grid-search calibration


@dataclass
class FoldResult:
    fold: int
    u: float
    a: float
    train_rmse: float
    heldout_rmse: float


@dataclass
class CalibrationResult:
    fold_results: list[FoldResult]
    surface: dict  # (u, a) -> pooled RMSE over all cases
    heldout_predictions: np.ndarray  # per case, from its fold's selected cell


def _fold_splits(fold_ids) -> list:
    """(fold, train mask, test mask) per fold in ascending order.  A lone
    fold trains on its own cases."""
    fold_ids = np.asarray(fold_ids)
    splits = []
    for fold in sorted(set(fold_ids.tolist())):
        test = fold_ids == fold
        splits.append((int(fold), test if test.all() else ~test, test))
    return splits


def _case_terms(cases, u_values, theta, scorer, extractor, clip_bound):
    """Judge each case's stream once.  Returns, as arrays over cases, the
    observed finals, the prior logits, the evidence term at each u value
    (case x u) and the net evidence: the left_sums of p*log1p(s*u) and
    of p*s over the accepted records, in the order they were received."""
    finals = np.array([c.observed_final for c in cases])
    prior_logits = np.array([log_odds_from_stance(clip_stance(c.initial_stance, clip_bound)) for c in cases])
    evidence = np.empty((len(cases), len(u_values)))
    net = np.empty(len(cases))
    for i, case in enumerate(cases):
        records = accepted_records(case, theta, scorer, extractor)
        evidence[i] = [left_sum(r.polarity * math.log1p(r.strength * u) for r in records) for u in u_values]
        net[i] = left_sum(r.polarity * r.strength for r in records)
    return finals, prior_logits, evidence, net


def _rmse(squared_errors):
    """Root mean over the last axis.  Rows must be C-contiguous: numpy
    sums a strided row in another order, which changes the last bit."""
    return np.sqrt(np.mean(squared_errors, axis=-1))


def _select(finals, prior_logits, evidence, fold_ids, grid: CalibrationGrid, subsets) -> list[CalibrationResult]:
    """calibrate's grid search over per-case terms (evidence is case x u)
    for several case subsets (index arrays) in one pass over the grid:
    each subset's RMSE surface, per-fold selection within its own folds
    and held-out predictions, one CalibrationResult per subset.

    Each u value's (a x case) error slab is built once; a cell's
    predictions are elementwise per case, so a subset's columns of it
    equal the subset's own cells bitwise."""
    fold_ids = np.asarray(fold_ids)
    splits = [_fold_splits(fold_ids[subset]) for subset in subsets]
    anchoring = np.array(grid.a_values, dtype=np.float64)[:, np.newaxis]
    surfaces = [{} for _ in subsets]
    best = [[None] * len(subset_splits) for subset_splits in splits]
    for ui, u in enumerate(grid.u_values):
        # One (a x case) slab per u value, reduced before the next one; the
        # whole (u x a x case) tensor would raise peak memory.  It is squared
        # in place (x * x, the bits of x ** 2): new arrays for the difference
        # and the square raised the peak RSS of a 10,000-case report by
        # 3.4 MiB.
        errors = _predict(anchoring, prior_logits, evidence[:, ui])
        errors -= finals
        errors *= errors
        for subset, subset_splits, surface, subset_best in zip(subsets, splits, surfaces, best):
            subset_errors = np.take(errors, subset, axis=1)  # a C-contiguous copy
            surface.update(zip([(u, a) for a in grid.a_values], _rmse(subset_errors).tolist()))
            for f, (_, train, _) in enumerate(subset_splits):
                for a, rmse in zip(grid.a_values, _rmse(np.compress(train, subset_errors, axis=1)).tolist()):
                    if subset_best[f] is None or rmse < subset_best[f][0] - 1e-15:
                        subset_best[f] = (rmse, ui, u, a)
    results = []
    for subset, subset_splits, surface, subset_best in zip(subsets, splits, surfaces, best):
        subset_finals, subset_priors, subset_evidence = finals[subset], prior_logits[subset], evidence[subset]
        fold_results = []
        heldout_predictions = np.full(len(subset), np.nan)
        for (fold, _, test), (train_rmse, ui, u, a) in zip(subset_splits, subset_best):
            preds = _predict(a, subset_priors[test], subset_evidence[test, ui])
            heldout_predictions[test] = preds
            heldout = float(_rmse((preds - subset_finals[test]) ** 2))
            fold_results.append(FoldResult(fold=fold, u=u, a=a, train_rmse=train_rmse, heldout_rmse=heldout))
        results.append(CalibrationResult(fold_results, surface, heldout_predictions))
    return results


def calibrate(
    cases: list[ReplayCase],
    grid: CalibrationGrid,
    fold_ids: list[int],
    theta: float = 0.85,
    scorer: Optional[ScorerPort] = None,
    extractor: Optional[ExtractorPort] = None,
    clip_bound: float = STANCE_CLIP,
) -> CalibrationResult:
    """Select the training-RMSE-minimising (u, a) per fold (ties prefer
    smaller u, then smaller a) and report held-out RMSE plus the pooled
    RMSE surface."""
    if not cases:
        raise ContractError("calibrate needs at least one case")
    finals, prior_logits, evidence, _ = _case_terms(cases, grid.u_values, theta, scorer, extractor, clip_bound)
    return _select(finals, prior_logits, evidence, fold_ids, grid, [np.arange(len(cases))])[0]


# ---------------------------------------------------------------------------
# Full replay report (baselines, subgroups, surfaces)


@dataclass
class GroupSummary:
    group: str
    n: int
    mean_abs_movement: float
    no_change_rmse: float
    linear_rmse: float
    be_rmse: float

    @property
    def gain(self) -> float:
        return self.linear_rmse - self.be_rmse


@dataclass
class ReplayReport:
    cases: list
    fold_ids: list
    pooled: CalibrationResult
    group_calibrations: dict  # label -> CalibrationResult (restricted cases)
    group_summaries: list  # GroupSummary rows, "all" first
    subgroup_of_case: list  # label per case
    linear_betas: dict  # fold -> beta
    linear_predictions: np.ndarray
    no_change_predictions: np.ndarray
    surfaces: dict  # subset label -> {(u, a): rmse}


def build_replay_report(
    cases: list[ReplayCase],
    grid: CalibrationGrid,
    key: str = "group",
    folds: int = 5,
    seed: int = 42,
    theta: float = 0.85,
    scorer: Optional[ScorerPort] = None,
    extractor: Optional[ExtractorPort] = None,
    eps_weak: float = 0.05,
    clip_bound: float = STANCE_CLIP,
) -> ReplayReport:
    if not cases:
        raise ContractError("no valid replay cases")
    _check_eps_weak(eps_weak)  # before any case is judged
    fold_ids = assign_folds(cases, key=key, folds=folds, seed=seed)
    finals, prior_logits, evidence, net = _case_terms(cases, grid.u_values, theta, scorer, extractor, clip_bound)
    initials = np.array([c.initial_stance for c in cases])
    deltas = finals - initials  # the bits of case.delta
    movements = np.abs(deltas)

    # Linear baseline: one beta per fold, fit on training cases only.
    linear_betas = {}
    linear_preds = np.zeros(len(cases))
    for fold, train, test in _fold_splits(fold_ids):
        beta = fit_linear_baseline(zip(net[train], deltas[train]))
        linear_betas[fold] = beta
        linear_preds[test] = linear_prediction(initials[test], beta, net[test])

    # The pooled fit and one fit per non-empty subgroup, in one grid pass.
    subgroups = [classify_subgroup(case, net[i], eps_weak) for i, case in enumerate(cases)]
    labels = np.array(subgroups)
    subsets = {"all": np.arange(len(cases))}
    subsets.update((label, np.flatnonzero(labels == label)) for label in SUBGROUP_LABELS if label in subgroups)
    fits = dict(zip(subsets, _select(finals, prior_logits, evidence, fold_ids, grid, list(subsets.values()))))
    return ReplayReport(
        cases=cases,
        fold_ids=fold_ids,
        pooled=fits["all"],
        group_calibrations={label: fit for label, fit in fits.items() if label != "all"},
        group_summaries=[
            _summarise(label, indices, fits[label].heldout_predictions, finals, initials, movements, linear_preds)
            for label, indices in subsets.items()
        ],
        subgroup_of_case=subgroups,
        linear_betas=linear_betas,
        linear_predictions=linear_preds,
        no_change_predictions=initials,
        surfaces={label: fit.surface for label, fit in fits.items()},
    )


def _summarise(label, indices, be_predictions, finals, initials, movements, linear_preds) -> GroupSummary:
    """One summary row over the cases at indices, from per-case arrays of
    the whole report; the no-change prediction is the initial stance."""
    finals, initials, movements = finals[indices], initials[indices], movements[indices]
    no_change_fit = _evaluate(finals, movements, initials)
    return GroupSummary(
        group=label,
        n=len(indices),
        mean_abs_movement=no_change_fit.mean_abs_movement,
        no_change_rmse=no_change_fit.rmse,
        linear_rmse=_evaluate(finals, movements, linear_preds[indices]).rmse,
        be_rmse=_evaluate(finals, movements, be_predictions).rmse,
    )


# ---------------------------------------------------------------------------
# JSONL ingestion


def _integral(value, name: str) -> int:
    """An integer field: ints and integral floats (4.0) pass, anything
    else (4.7, null, "4", true) is rejected rather than truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ContractError(f"{name} {value!r} is not an integer")


def _number(value, name: str) -> float:
    """A numeric field: strings, booleans and integers beyond float range
    are rejected, not converted."""
    number = as_float(value)
    if number is None:
        raise ContractError(f"{name} {value!r} is not a number")
    return number


def case_from_dict(row: dict) -> ReplayCase:
    """A case from one parsed JSONL line; a ContractError names the case
    field, or the evidence item by its index, that is missing or wrong."""
    if not isinstance(row, dict):
        raise ContractError(f"case must be a JSON object, got {type(row).__name__}")
    for name in ("participant", "group", "topic", "initial_likert"):
        if name not in row:
            raise ContractError(f"case has no {name!r} field")
    items = row.get("evidence", [])
    if not isinstance(items, list):
        raise ContractError(f"case field 'evidence' must be a list, got {items!r}")
    evidence = []
    for index, item in enumerate(items):
        if not isinstance(item, dict):
            raise ContractError(f"evidence[{index}] must be an object, got {item!r}")
        try:
            if "text" in item:
                if "claim" in item:
                    raise ContractError("item carries both claim and text")
                evidence.append(EvidenceItem(text=item["text"]))
                continue
            if "claim" not in item:
                raise ContractError("item has neither 'claim' nor 'text'")
            if "polarity" not in item:
                raise ContractError("item has no 'polarity' field")
            evidence.append(
                EvidenceItem(
                    claim=item["claim"],
                    polarity=_integral(item["polarity"], "polarity"),
                    strength=item.get("strength"),
                )
            )
        except ContractError as exc:
            raise ContractError(f"evidence[{index}]: {exc}") from None
    final_likert = row.get("final_likert")
    return ReplayCase(
        participant=row["participant"],
        group=row["group"],
        topic=row["topic"],
        initial_likert=_integral(row["initial_likert"], "initial_likert"),
        final_likert=_integral(final_likert, "final_likert") if final_likert is not None else None,
        final_stance=_number(row["final_stance"], "final_stance") if row.get("final_stance") is not None else None,
        evidence=evidence,
    )


def load_cases_jsonl(path) -> tuple[list[ReplayCase], list[tuple[int, str]]]:
    """Load cases; malformed lines, bytes that are not UTF-8 and JSON nested
    too deep to parse included, are returned as (line number, error).  Each
    line is decoded on its own, so the other lines still load.  split_lines
    skips a byte-order mark at the start of the file, as it does for a
    trace."""
    cases = []
    errors = []
    with open(path, "rb") as handle:
        for line_number, raw in enumerate(split_lines(handle), start=1):
            try:
                line = raw.decode().strip()
                if line:
                    cases.append(case_from_dict(json.loads(line)))
            # UnicodeDecodeError is a ValueError; json raises RecursionError on a line nested too deep
            except (ValueError, RecursionError, KeyError, TypeError, ContractError) as exc:
                errors.append((line_number, str(exc)))
    return cases, errors


def case_to_dict(case: ReplayCase) -> dict:
    return {
        "participant": case.participant,
        "group": case.group,
        "topic": case.topic,
        "initial_likert": case.initial_likert,
        "final_likert": case.final_likert,
        "final_stance": case.final_stance,
        "evidence": [
            {"claim": e.claim, "polarity": e.polarity, "strength": e.strength}
            if e.text is None
            else {"text": e.text}
            for e in case.evidence
        ],
    }
