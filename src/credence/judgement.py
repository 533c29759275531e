"""Scoring and conflict resolution: candidate arguments become evidence records.

Each candidate gets a strength in [0, 1], its own strength hint if it
has one and otherwise the score of a pluggable scorer, then passes soft
deduplication: if an active same-polarity record is more similar than
the threshold, only the stronger of the two stays active.  Archived
records are kept for audit but never re-enter the active set.
"""

from __future__ import annotations

import hashlib
import math
import time
import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import Role, check_polarity, check_strength
from .exceptions import ContractError, ScoringBackendError

EMBED_DIM = 512
# Entries the process-wide trigram memo takes before it stops growing.  The
# largest vocabulary measured (the replay and dialogue benchmark inputs) has
# about 13,200 distinct trigrams; a full memo holds 1.2-1.7 MiB.  Twice the
# limit would hold 2.5-3.4 MiB and, through the dict's growth, add about
# 6 MiB of peak RSS.
GRAM_MEMO_LIMIT = 1 << 14
# Delay before the first retry of a service call; each later one doubles,
# up to the cap.
BACKOFF_BASE_S = 0.1
BACKOFF_CAP_S = 2.0


@dataclass
class CandidateArgument:
    claim: str
    polarity: int
    role: Role
    strength_hint: Optional[float] = None

    def __post_init__(self):
        if not self.claim.strip():
            raise ContractError("candidate claim is empty")
        check_polarity(self.polarity)
        check_strength(self.strength_hint, "strength hint")


@dataclass
class ArgumentRecord:
    claim: str
    polarity: int
    strength: float
    role: Role
    embedding: np.ndarray
    active: bool = True  # a property, set below
    id: Optional[int] = None
    archived_by: Optional[int] = None
    inserted_at: Optional[int] = None
    # The holding MemoryStore, set by insert; weak, so there is no cycle.
    store: Optional[weakref.ref] = field(default=None, init=False, repr=False, compare=False)


def _set_active(record: ArgumentRecord, value: bool) -> None:
    """Clearing ``active`` archives the record and tells its store, if
    any; an archived record never re-enters the active set."""
    was = getattr(record, "_active", None)
    if value and was is not None and not was:
        raise ContractError(f"archived record {record.id} cannot re-enter the active set")
    record._active = value
    store = record.store() if record.store is not None else None
    if was and not value and store is not None:
        store._forget(record)


# Set after the dataclass is made, which keeps True as the field default.
ArgumentRecord.active = property(lambda record: record._active, _set_active)


class _GramBuckets(dict):
    """Trigram -> bucket memo: a miss hashes the gram and keeps it while
    the memo holds fewer than GRAM_MEMO_LIMIT entries; nothing is evicted.
    Values are the shared ints of _BUCKETS, so an entry costs its key and
    a slot."""

    def __missing__(self, gram: str) -> int:
        digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
        bucket = _BUCKETS[int.from_bytes(digest, "big") % EMBED_DIM]
        if len(self) < GRAM_MEMO_LIMIT:
            self[gram] = bucket
        return bucket


_BUCKETS = tuple(range(EMBED_DIM))
_GRAM_BUCKETS = _GramBuckets()


def embed_claim(claim: str) -> np.ndarray:
    """Hashed character-trigram term-frequency vector, L2-normalised.

    Deterministic across processes (no use of the builtin hash).  Each
    distinct trigram is hashed once per process, through _GRAM_BUCKETS.
    """
    text = claim.strip().lower()
    if not text:
        raise ContractError("cannot embed an empty claim")
    grams = [text[i : i + 3] for i in range(len(text) - 2)] if len(text) >= 3 else [text]
    buckets = [_GRAM_BUCKETS[gram] for gram in grams]
    # Counts are small integers, so the float64 vector is exact.
    vec = np.bincount(buckets, minlength=EMBED_DIM).astype(np.float64)
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


class ServiceClient:
    """One HTTP backend, shared by the service scorer and extractor: a
    per-call timeout (> 0) and ``retries`` (>= 0) extra attempts, with a
    bounded exponential backoff between them."""

    def __init__(self, url: str, timeout: float = 5.0, retries: int = 2, transport: Optional[Callable] = None):
        if not timeout > 0.0 or retries < 0:  # NaN fails too
            raise ContractError(f"service timeout must be > 0 and retries >= 0, got {timeout!r} and {retries!r}")
        self.url = url
        self.timeout = timeout
        self.retries = retries
        self.transport = transport or requests_transport

    def post(self, payload: dict, error_cls):
        """POST through the transport, retrying only transport failures.

        Returns the decoded body of the first call that succeeds; judging
        the body is the caller's job, so a malformed reply is not retried.
        Before retry i (from 0) it sleeps min(BACKOFF_CAP_S, BACKOFF_BASE_S
        * 2**i).  After ``retries + 1`` failed calls, raises ``error_cls``.
        """
        last_error = None
        delay = BACKOFF_BASE_S
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(delay)
                delay = min(BACKOFF_CAP_S, delay * 2.0)
            try:
                return self.transport(self.url, payload, self.timeout)
            except Exception as exc:  # noqa: BLE001 - any transport failure counts
                last_error = exc
        raise error_cls(f"service unreachable at {self.url} after {self.retries + 1} attempts: {last_error}")


class ServiceScorer(ServiceClient, ScorerPort):
    """HTTP scorer: POST {topic, claim}, expect {score}."""

    def score(self, topic: str, claim: str) -> float:
        body = self.post({"topic": topic, "claim": claim}, ScoringBackendError)
        score = body.get("score") if isinstance(body, dict) else None
        if isinstance(score, bool) or not isinstance(score, (int, float)):  # a string is not converted
            raise ScoringBackendError(f"scoring service at {self.url} returned a malformed body {body!r}")
        return float(score)


def requests_transport(url: str, payload: dict, timeout: float):
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


def judge(
    memory, candidate: CandidateArgument, topic: str, scorer: Optional[ScorerPort], theta: float, theta_self: float
) -> tuple[ArgumentRecord, ResolutionOutcome]:
    """The one judgement path: strength, record, deduplication, storage.

    The strength is the candidate's hint if it has one, else the scorer's
    clamped score; with neither, the candidate cannot be judged.
    """
    if candidate.strength_hint is not None:
        strength = float(candidate.strength_hint)
    elif scorer is None:
        raise ContractError(f"no strength for claim {candidate.claim!r} and no scorer configured")
    else:
        strength = score_strength(candidate, topic, scorer)
    record = ArgumentRecord(
        claim=candidate.claim.strip(),
        polarity=candidate.polarity,
        strength=strength,
        role=candidate.role,
        embedding=memory.embed(candidate.claim),
    )
    return record, ingest_record(memory, record, theta, theta_self)
