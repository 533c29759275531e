import hashlib
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from credence import judgement
from credence.core import Role
from credence.exceptions import ContractError, ScoringBackendError
from credence.judgement import (
    ArgumentRecord,
    BuiltinScorer,
    CandidateArgument,
    ScorerPort,
    ServiceScorer,
    cosine_similarity,
    embed_claim,
    ingest_record,
    judge,
    resolve_conflict,
    resolve_self_conflict,
    score_strength,
)
from credence.memory import MemoryStore


class FixedScorer(ScorerPort):
    """Returns one value for every claim and counts its calls."""

    def __init__(self, value):
        self.value = value
        self.calls = 0

    def score(self, topic, claim):
        self.calls += 1
        return self.value


def make_record(claim, polarity=1, strength=0.5, role=Role.OPPONENT):
    return ArgumentRecord(
        claim=claim, polarity=polarity, strength=strength, role=role, embedding=embed_claim(claim)
    )


def test_candidate_validation():
    with pytest.raises(ContractError):
        CandidateArgument(claim="   ", polarity=1, role=Role.SELF)
    for polarity in (0, True):  # True == 1, but a boolean is no polarity
        with pytest.raises(ContractError):
            CandidateArgument(claim="x", polarity=polarity, role=Role.SELF)
    for hint in (float("nan"), float("inf"), -0.1, 1.7, "0.5", True):
        with pytest.raises(ContractError):
            CandidateArgument(claim="x", polarity=1, role=Role.SELF, strength_hint=hint)


def test_judge_takes_the_hint_else_the_scorer():
    store = MemoryStore()
    scorer = FixedScorer(0.25)
    hinted = CandidateArgument(claim=" parks need lights ", polarity=1, role=Role.OPPONENT, strength_hint=0.75)
    record, outcome = judge(store, hinted, "t", scorer, 0.8, 0.5)
    assert (record.strength, record.claim, scorer.calls) == (0.75, "parks need lights", 0)
    assert outcome.kept_new and store.records == [record]
    unhinted = CandidateArgument(claim="bridges need paint", polarity=-1, role=Role.OPPONENT)
    record, _ = judge(store, unhinted, "t", scorer, 0.8, 0.5)
    assert (record.strength, scorer.calls) == (0.25, 1)
    assert record.embedding is store.embed("bridges need paint")


def test_judge_without_hint_or_scorer_is_a_contract_error():
    store = MemoryStore()
    with pytest.raises(ContractError):
        judge(store, CandidateArgument(claim="x", polarity=1, role=Role.OPPONENT), "t", None, 0.8, 0.5)
    assert len(store) == 0


def test_embedding_deterministic_and_normalised():
    a = embed_claim("parks need better lighting at night")
    b = embed_claim("parks need better lighting at night")
    assert np.array_equal(a, b)
    assert np.linalg.norm(a) == pytest.approx(1.0)


def test_embedding_case_and_whitespace_insensitive():
    assert np.array_equal(embed_claim("  Parks Matter "), embed_claim("parks matter"))


@settings(max_examples=200, deadline=None)
@given(st.text(min_size=1, max_size=60).filter(lambda t: t.strip()))
def test_embedding_equals_per_gram_accumulation(claim):
    # Reference: add 1.0 per hashed trigram, then divide by the L2 norm.
    text = claim.strip().lower()
    grams = [text[i : i + 3] for i in range(len(text) - 2)] if len(text) >= 3 else [text]
    vec = np.zeros(512)
    for gram in grams:
        digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
        vec[int.from_bytes(digest, "big") % 512] += 1.0
    vec = vec / np.linalg.norm(vec)
    assert embed_claim(claim).tobytes() == vec.tobytes()


def _gram_bucket(gram):
    return int.from_bytes(hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest(), "big") % 512


@pytest.mark.parametrize("limit", [0, 3, judgement.GRAM_MEMO_LIMIT])
@settings(max_examples=60, deadline=None)
@given(claims=st.lists(st.text(min_size=1, max_size=40).filter(lambda t: t.strip()), min_size=1, max_size=6))
@example(claims=["Straße über Ærø", "ÇA VA ☃ ça va", "İstanbul ǅ ﬁ", "日本語のテキスト"])
def test_gram_memo_is_bounded_and_exact(limit, claims):
    """With any memo limit, each embedding equals the per-gram blake2b
    reference bytewise, on a first (filling) and a second (reading) pass,
    and the memo never holds more than its limit, each entry the shared
    int of its gram's bucket."""
    memo = judgement._GramBuckets()
    with mock.patch.object(judgement, "GRAM_MEMO_LIMIT", limit), mock.patch.object(judgement, "_GRAM_BUCKETS", memo):
        for claim in claims + claims:
            text = claim.strip().lower()
            grams = [text[i : i + 3] for i in range(len(text) - 2)] if len(text) >= 3 else [text]
            vec = np.zeros(512)
            for gram in grams:
                vec[_gram_bucket(gram)] += 1.0
            assert embed_claim(claim).tobytes() == (vec / np.linalg.norm(vec)).tobytes()
            assert len(memo) <= limit
    assert all(bucket is judgement._BUCKETS[_gram_bucket(gram)] for gram, bucket in memo.items())


def test_similar_texts_score_higher():
    base = embed_claim("the library should stay open on sundays")
    near = embed_claim("the library should stay open on sunday")
    far = embed_claim("bridge tolls fund the ferry system")
    assert cosine_similarity(base, near) > cosine_similarity(base, far)


def test_builtin_scorer_range_and_determinism():
    scorer = BuiltinScorer()
    values = [scorer.score("t", f"claim {i}") for i in range(100)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert scorer.score("t", "claim 0") == values[0]


def test_service_scorer_retries_then_fails(monkeypatch):
    calls = []

    def flaky(url, payload, timeout):
        calls.append(payload)
        raise OSError("down")

    delays = []
    monkeypatch.setattr(judgement.time, "sleep", delays.append)
    scorer = ServiceScorer("http://scores.invalid", retries=2, transport=flaky)
    with pytest.raises(ScoringBackendError):
        scorer.score("t", "claim")
    assert len(calls) == 3
    assert delays == [judgement.BACKOFF_BASE_S, 2 * judgement.BACKOFF_BASE_S]  # none after the last call


def test_service_backoff_doubles_up_to_its_cap(monkeypatch):
    calls = []

    def recovers(url, payload, timeout):
        calls.append(payload)
        if len(calls) <= 7:
            raise OSError("down")
        return {"score": 0.5}

    delays = []
    monkeypatch.setattr(judgement.time, "sleep", delays.append)
    scorer = ServiceScorer("http://scores.invalid", retries=7, transport=recovers)
    assert scorer.score("t", "claim") == 0.5
    assert len(calls) == 8
    expected = [min(judgement.BACKOFF_CAP_S, judgement.BACKOFF_BASE_S * 2**i) for i in range(7)]
    assert delays == expected and delays[-1] == judgement.BACKOFF_CAP_S


@pytest.mark.parametrize(
    "body", [{"value": 0.4}, {"score": "high"}, ["score"], None, {"score": True}, {"score": "0.25"}]
)
def test_service_scorer_does_not_retry_a_malformed_body(body, monkeypatch):
    calls = []

    def garbled(url, payload, timeout):
        calls.append(payload)
        return body

    delays = []
    monkeypatch.setattr(judgement.time, "sleep", delays.append)
    scorer = ServiceScorer("http://scores.invalid", retries=2, transport=garbled)
    with pytest.raises(ScoringBackendError, match="malformed body"):
        scorer.score("t", "claim")
    assert len(calls) == 1 and delays == []


def test_service_scorer_success():
    scorer = ServiceScorer("http://scores.invalid", transport=lambda u, p, t: {"score": 0.42})
    assert scorer.score("t", "claim") == 0.42


def test_score_strength_clamps():
    scorer = FixedScorer(1.7)
    candidate = CandidateArgument(claim="c", polarity=1, role=Role.OPPONENT)
    assert score_strength(candidate, "t", scorer) == 1.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_score_strength_rejects_non_finite_scores(bad):
    # Clamping would turn NaN into 0.0 and infinities into 0 or 1.
    scorer = FixedScorer(bad)
    candidate = CandidateArgument(claim="c", polarity=1, role=Role.OPPONENT)
    with pytest.raises(ScoringBackendError):
        score_strength(candidate, "t", scorer)


def test_duplicate_keeps_existing_on_tie():
    store = MemoryStore()
    existing = make_record("bike lanes cut traffic deaths", strength=0.6)
    ingest_record(store, existing, 0.8, 0.5)
    duplicate = make_record("bike lanes cut traffic deaths", strength=0.6)
    outcome = ingest_record(store, duplicate, 0.8, 0.5)
    assert not outcome.kept_new
    assert not duplicate.active
    assert duplicate.archived_by == existing.id
    assert existing.active


def test_stronger_duplicate_supersedes():
    store = MemoryStore()
    weak = make_record("bike lanes cut traffic deaths", strength=0.4)
    ingest_record(store, weak, 0.8, 0.5)
    strong = make_record("bike lanes cut traffic deaths", strength=0.9)
    outcome = ingest_record(store, strong, 0.8, 0.5)
    assert outcome.kept_new and outcome.superseded is weak
    assert not weak.active and weak.archived_by == strong.id


def test_opposite_polarity_never_conflicts():
    store = MemoryStore()
    pro = make_record("bike lanes cut traffic deaths", polarity=1)
    ingest_record(store, pro, 0.8, 0.5)
    con = make_record("bike lanes cut traffic deaths", polarity=-1)
    outcome = ingest_record(store, con, 0.8, 0.5)
    assert outcome.kept_new and pro.active and con.active


def test_below_threshold_coexists():
    store = MemoryStore()
    ingest_record(store, make_record("bike lanes cut traffic deaths"), 0.8, 0.5)
    other = make_record("the stadium lease expires next year")
    outcome = ingest_record(store, other, 0.8, 0.5)
    assert outcome.kept_new and outcome.similarity < 0.8


def test_self_pool_excludes_opponent_records():
    store = MemoryStore()
    opponent = make_record("transit fares should be frozen", role=Role.OPPONENT, strength=0.9)
    ingest_record(store, opponent, 0.8, 0.5)
    mine = make_record("transit fares should be frozen", role=Role.SELF, strength=0.2)
    outcome = ingest_record(store, mine, 0.8, 0.5)
    # Identical text, but the self rule only inspects self/seed records.
    assert outcome.kept_new and mine.active and opponent.active


def test_self_pool_includes_seeds():
    store = MemoryStore()
    seed = make_record("transit fares should be frozen", role=Role.SEED, strength=0.9)
    ingest_record(store, seed, 0.8, 0.5)
    mine = make_record("transit fares should be frozen", role=Role.SELF, strength=0.2)
    outcome = ingest_record(store, mine, 0.8, 0.5)
    assert not outcome.kept_new and not mine.active


def test_resolve_self_conflict_requires_self_role():
    with pytest.raises(ContractError):
        resolve_self_conflict(make_record("x", role=Role.OPPONENT), MemoryStore(), 0.5)


def test_archived_records_never_reenter():
    store = MemoryStore()
    first = make_record("bike lanes cut traffic deaths", strength=0.4)
    ingest_record(store, first, 0.8, 0.5)
    second = make_record("bike lanes cut traffic deaths", strength=0.9)
    ingest_record(store, second, 0.8, 0.5)
    # A later weak duplicate competes against the survivor, not the archive.
    third = make_record("bike lanes cut traffic deaths", strength=0.5)
    outcome = resolve_conflict(third, store, 0.8)
    assert outcome.matched_id == second.id


def test_tie_matches_lowest_id():
    store = MemoryStore()
    twin_a = make_record("identical claim text", strength=0.5)
    twin_b = make_record("identical claim text ", strength=0.5)  # same embedding after strip
    store.insert(twin_a)
    store.insert(twin_b)
    outcome = resolve_conflict(make_record("identical claim text", strength=0.4), store, 0.8)
    assert outcome.matched_id == twin_a.id


def test_random_streams_keep_polarity_partition():
    rng = random.Random(5)
    store = MemoryStore()
    for i in range(120):
        record = make_record(
            f"claim number {rng.randrange(20)}", polarity=rng.choice([-1, 1]), strength=rng.random()
        )
        ingest_record(store, record, 0.8, 0.5)
    for record in store:
        if record.archived_by is not None:
            winner = store.records[record.archived_by]
            assert winner.polarity == record.polarity
            assert winner.strength >= record.strength
