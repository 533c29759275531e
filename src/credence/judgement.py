"""Scoring and conflict resolution: candidate arguments become evidence records.

Each candidate gets a strength in [0, 1] from a pluggable scorer, then
passes soft deduplication: if an active same-polarity record is more
similar than the threshold, only the stronger of the two stays active.
Archived records are kept for audit but never re-enter the active set.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import Role
from .exceptions import ContractError, ScoringBackendError

EMBED_DIM = 512


@dataclass
class CandidateArgument:
    claim: str
    polarity: int
    role: Role
    strength_hint: Optional[float] = None

    def __post_init__(self):
        if not self.claim.strip():
            raise ContractError("candidate claim is empty")
        if self.polarity not in (-1, 1):
            raise ContractError(f"polarity {self.polarity} not in {{-1, +1}}")


@dataclass
class ArgumentRecord:
    claim: str
    polarity: int
    strength: float
    role: Role
    embedding: np.ndarray
    active: bool = True
    id: Optional[int] = None
    archived_by: Optional[int] = None
    inserted_at: Optional[int] = None


def embed_claim(claim: str, dim: int = EMBED_DIM) -> np.ndarray:
    """Hashed character-trigram term-frequency vector, L2-normalised.

    Deterministic across processes (no use of the builtin hash).
    """
    text = claim.strip().lower()
    if not text:
        raise ContractError("cannot embed an empty claim")
    grams = [text[i : i + 3] for i in range(len(text) - 2)] if len(text) >= 3 else [text]
    buckets = [
        int.from_bytes(hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest(), "big") % dim
        for gram in grams
    ]
    # Counts are small integers, so the float64 vector is exact.
    vec = np.bincount(buckets, minlength=dim).astype(np.float64)
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0.0 else vec


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


class ScorerPort:
    """Strength scorer interface: (topic, claim) -> score in [0, 1]."""

    def score(self, topic: str, claim: str) -> float:
        raise NotImplementedError


class BuiltinScorer(ScorerPort):
    """Deterministic hash-based scorer; stable across runs and machines."""

    def score(self, topic: str, claim: str) -> float:
        payload = f"{topic}\x1f{claim}".encode("utf-8")
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        return int.from_bytes(digest, "big") / float(2**64)


class TableScorer(ScorerPort):
    """Lookup scorer keyed by (topic, claim).

    Scripted-claim strength hints are registered here at extraction
    time, so offline runs score exactly the hinted values.
    """

    def __init__(self, entries: Optional[dict] = None):
        self.entries: dict[tuple[str, str], float] = dict(entries or {})

    def register(self, topic: str, claim: str, score: float) -> None:
        self.entries[(topic, claim)] = float(score)

    def score(self, topic: str, claim: str) -> float:
        try:
            return self.entries[(topic, claim)]
        except KeyError:
            raise ScoringBackendError(f"no strength entry for claim {claim!r} on topic {topic!r}")


class ServiceScorer(ScorerPort):
    """HTTP scorer: POST {topic, claim}, expect {score}."""

    def __init__(self, url: str, timeout: float = 5.0, retries: int = 2, transport: Optional[Callable] = None):
        self.url = url
        self.timeout = timeout
        self.retries = retries
        self.transport = transport or _requests_transport

    def score(self, topic: str, claim: str) -> float:
        payload = {"topic": topic, "claim": claim}
        last_error = None
        for _ in range(self.retries + 1):
            try:
                response = self.transport(self.url, payload, self.timeout)
                return float(response["score"])
            except Exception as exc:  # noqa: BLE001 - any backend failure aborts scoring
                last_error = exc
        raise ScoringBackendError(f"scoring service unreachable at {self.url}: {last_error}")


def _requests_transport(url: str, payload: dict, timeout: float) -> dict:
    import requests

    response = requests.post(url, json=payload, timeout=timeout)
    response.raise_for_status()
    return response.json()


def score_strength(candidate: CandidateArgument, topic: str, scorer: ScorerPort) -> float:
    """Score a candidate, clamping the scorer output to [0, 1].

    A NaN or infinite score is a scorer failure, not a strength: clamping
    would silently turn NaN into 0.0.
    """
    raw = float(scorer.score(topic, candidate.claim))
    if not math.isfinite(raw):
        raise ScoringBackendError(f"scorer returned {raw!r} for claim {candidate.claim!r} on topic {topic!r}")
    return min(1.0, max(0.0, raw))


@dataclass
class ResolutionOutcome:
    kept_new: bool
    similarity: Optional[float] = None
    matched_id: Optional[int] = None
    superseded: Optional[ArgumentRecord] = None
    warning: Optional[str] = None


def _resolve_against_pool(new: ArgumentRecord, pool: list[ArgumentRecord], threshold: float) -> ResolutionOutcome:
    if not pool:
        return ResolutionOutcome(kept_new=True)

    warning = None
    if np.linalg.norm(new.embedding) == 0.0:
        warning = "zero-norm embedding; similarity treated as 0"

    best = None
    best_sim = -1.0
    for record in pool:  # id order, so ties keep the lowest id
        sim = cosine_similarity(new.embedding, record.embedding)
        if sim > best_sim:
            best = record
            best_sim = sim

    if best_sim < threshold:
        return ResolutionOutcome(kept_new=True, similarity=best_sim, matched_id=best.id, warning=warning)
    if new.strength > best.strength:
        return ResolutionOutcome(
            kept_new=True, similarity=best_sim, matched_id=best.id, superseded=best, warning=warning
        )
    # Ties keep the existing record.
    new.active = False
    new.archived_by = best.id
    return ResolutionOutcome(kept_new=False, similarity=best_sim, matched_id=best.id, warning=warning)


def resolve_conflict(new: ArgumentRecord, memory, threshold: float) -> ResolutionOutcome:
    """Soft-deduplicate against all active same-polarity records."""
    return _resolve_against_pool(new, memory.candidates(new.embedding, new.polarity), threshold)


def resolve_self_conflict(new: ArgumentRecord, memory, threshold_self: float) -> ResolutionOutcome:
    """Same rule for self-generated arguments, compared only against the
    agent's own active claims (self and seed) of the same polarity."""
    if new.role != Role.SELF:
        raise ContractError("resolve_self_conflict requires a role=self record")
    pool = memory.candidates(new.embedding, new.polarity, own_only=True)
    return _resolve_against_pool(new, pool, threshold_self)


def ingest_record(memory, record: ArgumentRecord, threshold: float, threshold_self: float) -> ResolutionOutcome:
    """Resolve, insert, and finalise archival flags for one record."""
    if record.role == Role.SELF:
        outcome = resolve_self_conflict(record, memory, threshold_self)
    else:
        outcome = resolve_conflict(record, memory, threshold)
    record_id = memory.insert(record)
    if outcome.superseded is not None:
        memory.archive(outcome.superseded, archived_by=record_id)
    return outcome
