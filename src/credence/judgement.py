"""Scoring and conflict resolution: candidate arguments become evidence records.

Each candidate gets a strength in [0, 1], its own strength hint if it
has one and otherwise the score of a pluggable scorer, then passes soft
deduplication: if an active same-polarity record is more similar than
the threshold, only the stronger of the two stays active.  Archived
records are kept for audit but never re-enter the active set.
Each candidate is judged alone (judge), in the order it arrives.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Role, check_polarity, check_strength, number_in
from .exceptions import ContractError, ScoringBackendError

EMBED_DIM = 512
# Entries the process-wide trigram memo takes before it stops growing.  The
# largest vocabulary measured (the replay and dialogue benchmark inputs) has
# about 13,200 distinct trigrams.  Measured with tracemalloc, a full memo
# holds 1.56 MiB of ASCII trigrams or 1.60 MiB of CJK ones; twice the limit
# would hold 3.25 MiB of either, room those inputs do not use.
GRAM_MEMO_LIMIT = 1 << 14
# Delay before the first retry of a service call; each later one doubles,
# up to the cap.
BACKOFF_BASE_S = 0.1
BACKOFF_CAP_S = 2.0


def check_candidate(claim: str, polarity, strength_hint) -> None:
    """Reject a blank claim, a polarity other than -1 or +1 and a strength
    hint that is not None or a finite number in [0, 1]: the checks of
    every candidate argument, and of every record a trace stores."""
    if not claim.strip():
        raise ContractError("candidate claim is empty")
    check_polarity(polarity)
    check_strength(strength_hint, "strength hint")


@dataclass
class CandidateArgument:
    claim: str
    polarity: int
    role: Role
    strength_hint: Optional[float] = None

    def __post_init__(self):
        check_candidate(self.claim, self.polarity, self.strength_hint)


@dataclass
class ArgumentRecord:
    """A judged claim.  A record made by ``judge`` holds in ``embedding``
    its store's shared, read-only float32 trigram counts
    (``MemoryStore.embed``); the store searches by claim text, never by
    this field, so a record built with another vector is deduplicated all
    the same.  ``active`` may be set only before the record is stored, as
    deduplication marks a losing new record; then only
    ``MemoryStore.archive`` clears it, so it never re-enters the active set."""

    claim: str
    polarity: int
    strength: float
    role: Role
    embedding: np.ndarray
    active: bool = True  # a property, set below
    id: Optional[int] = None
    archived_by: Optional[int] = None


def _set_active(record: ArgumentRecord, value: bool) -> None:
    if record.id is not None:
        raise ContractError(f"record {record.id} is stored: only MemoryStore.archive changes its active flag")
    record._active = value


# Set after the dataclass is made, which keeps True as the field default.
ArgumentRecord.active = property(lambda record: record._active, _set_active)


class _GramBuckets(dict):
    """Trigram -> bucket memo, keyed by the gram's characters: the triple
    that zip(text, text[1:], text[2:]) yields, or (text,) for a text
    shorter than 3 characters.  A hit builds no string; the builtin hash
    of the key only finds the dict slot.  A miss joins the characters and
    hashes the gram's UTF-8 bytes with blake2b, so no bucket depends on
    the builtin hash, and keeps the key while the memo holds fewer than
    GRAM_MEMO_LIMIT entries; nothing is evicted.  Values are the shared
    ints of _BUCKETS.  A non-ASCII key is stored with the canonical
    characters of _CHARS: iterating a string makes a new object for each
    character outside Latin-1, and one object per distinct character
    keeps a CJK entry about as small as an ASCII one."""

    def __missing__(self, chars: tuple) -> int:
        gram = "".join(chars)
        digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
        bucket = _BUCKETS[int.from_bytes(digest, "big") % EMBED_DIM]
        if len(self) < GRAM_MEMO_LIMIT:
            if not gram.isascii():
                chars = tuple(map(_CHARS.setdefault, chars, chars))
            self[chars] = bucket
        return bucket


_BUCKETS = tuple(range(EMBED_DIM))
_CHARS: dict[str, str] = {}
_GRAM_BUCKETS = _GramBuckets()


def _bincount(text: str) -> np.ndarray:
    """Integer trigram counts of a stripped, lower-cased text; their total
    is max(len(text) - 2, 1)."""
    if not text:
        raise ContractError("cannot embed an empty claim")
    grams = zip(text, text[1:], text[2:]) if len(text) >= 3 else ((text,),)
    buckets = np.fromiter(map(_GRAM_BUCKETS.__getitem__, grams), np.intp, max(len(text) - 2, 1))
    return np.bincount(buckets, minlength=EMBED_DIM)


def trigram_counts(claim: str) -> np.ndarray:
    """Hashed character-trigram counts of a claim, as a float64 vector.

    Deterministic across processes: each distinct trigram is hashed
    with blake2b once per process, through _GRAM_BUCKETS, whose keys the
    builtin hash only places in the dict; no bucket depends on it.
    The counts are small integers, so the vector is exact, and so is any
    dot product of two count vectors, in any summation order.
    """
    return _bincount(claim.strip().lower()).astype(np.float64)


def embed_claim(claim: str) -> np.ndarray:
    """The trigram counts of a claim, L2-normalised (a non-blank claim has
    at least one trigram, so the norm is positive)."""
    counts = trigram_counts(claim)
    return counts / np.linalg.norm(counts)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """a.b / sqrt(|a|^2 |b|^2), computed in float64 whatever the vectors'
    dtype (a store's cached counts are float32).  For trigram counts the
    three dot products are exact, and the multiply, sqrt and divide are
    each correctly rounded, so the result has the same bits on every
    IEEE-754 machine."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return float(a @ b) / math.sqrt(float(a @ a) * float(b @ b))


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
    per-call timeout (a finite number > 0) and ``retries`` (an integer
    >= 0, not a boolean) extra attempts, with a bounded exponential
    backoff between them."""

    def __init__(self, url: str, timeout: float = 5.0, retries: int = 2, transport: Optional[Callable] = None):
        valid_timeout = number_in(timeout, 0.0, sys.float_info.max) and timeout > 0.0
        if not (valid_timeout and type(retries) is int and retries >= 0):
            raise ContractError(
                "service timeout must be > 0 and retries >= 0, a finite number and an integer,"
                f" got {timeout!r} and {retries!r}"
            )
        self.url = url
        self.timeout = timeout
        self.retries = retries
        self.transport = transport or requests_transport

    def post(self, payload: dict, error_cls):
        """POST through the transport, retrying only transport failures:
        a connection error, an HTTP status >= 400, a timeout or a body
        that is not JSON.

        Returns the decoded body of the first call that succeeds; judging
        it is the caller's job, so a JSON body of the wrong shape is not
        retried.
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
    """POST payload as JSON through ``urllib.request`` and return the
    decoded reply.  A connection error, an HTTP status >= 400, a timeout
    or a body that is not JSON raises; urllib is imported at the first
    call, so importing the package does not load it."""
    import urllib.request

    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(url, data=body, headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read())
    except urllib.error.HTTPError as error:
        error.close()  # it holds the open response, and ServiceClient.post keeps the error
        raise


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


def _settle(new: ArgumentRecord, nearest: Optional[tuple], threshold: float) -> ResolutionOutcome:
    """Decide between new and its nearest active record, (record,
    similarity), or None when the pool is empty."""
    if nearest is None:
        return ResolutionOutcome(kept_new=True)
    best, similarity = nearest
    if similarity < threshold:
        return ResolutionOutcome(kept_new=True, similarity=similarity, matched_id=best.id)
    if new.strength > best.strength:
        return ResolutionOutcome(kept_new=True, similarity=similarity, matched_id=best.id, superseded=best)
    # Ties keep the existing record.
    new.active = False
    new.archived_by = best.id
    return ResolutionOutcome(kept_new=False, similarity=similarity, matched_id=best.id)


def ingest_record(
    memory, record: ArgumentRecord, threshold: float, threshold_self: float, text: Optional[tuple] = None
) -> ResolutionOutcome:
    """The one search-and-settle rule: record is settled against its
    nearest active same-polarity record (a self record only against the
    agent's own, self and seed, at threshold_self), then stored, and the
    record it supersedes is archived.  The store's cache entry of its
    claim is looked up once, here unless the caller passes it as text,
    and serves both the search and the insert."""
    text = text or memory._text(record.claim)
    own_only = record.role == Role.SELF
    outcome = _settle(record, memory.nearest(record, own_only, text), threshold_self if own_only else threshold)
    record_id = memory.insert(record, text)
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
    text = memory._text(candidate.claim)  # the one cache lookup of this claim
    record = ArgumentRecord(
        claim=candidate.claim.strip(),
        polarity=candidate.polarity,
        strength=strength,
        role=candidate.role,
        embedding=text[0],
    )
    return record, ingest_record(memory, record, theta, theta_self, text)
