"""Property tests for the indexed active set, the calibration grid, the
replay prediction kernel and the stance-to-instruction bins.

The store answers deduplication queries from an index (one matvec per
block of trigram counts), the engine and the trace verifier update L
incrementally, and calibration evaluates its grid from per-case terms.
Each property compares that fast path with the brute-force rule it
replaces, bitwise.  Similarity itself is checked against a pure-Python
integer oracle: on trigram counts it has the same bits on every IEEE-754
machine.
"""

import contextlib
import functools
import hashlib
import json
import math
import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from credence import replay as replay_mod
from credence.config import DEFAULT_TOPIC, bundled_text
from credence.core import Role, UAProfile, compute_log_odds, stance_from_log_odds
from credence.engine import (
    BIN_LABELS,
    TRACE_SCHEMA,
    TraceEvent,
    compose_response,
    process_message,
    read_trace,
    stance_to_instruction,
    store_from_trace,
    verify_trace,
    verify_trace_file,
    write_trace,
)
from credence.exceptions import ContractError, TraceVerificationError
from credence.extraction import Message
from credence.judgement import (
    EMBED_DIM,
    ArgumentRecord,
    CandidateArgument,
    cosine_similarity,
    embed_claim,
    ingest_record,
    judge,
    trigram_counts,
)
from credence.memory import MemoryStore, _RowSet, retrieve
from credence.replay import CalibrationGrid, EvidenceItem, ReplayCase, build_replay_report, calibrate, replay_case
from credence.simulation import load_scripted_claims, make_agent, seed_agent

PHRASES = (
    "the harbour dredging contract is overpriced",
    "school lunches should be free for all pupils",
    "the tram extension will cut commute times",
    "street lighting upgrades reduce burglaries",
)
SWAPS = ("quickly", "really", "surely", "often")


def _claim(phrase: int, swap: int, suffix: int) -> str:
    """Exact repeats (same arguments), one-word paraphrases (swap) and
    distinct claims (suffix) of a few base phrases."""
    words = PHRASES[phrase].split()
    if swap:
        words[2] = SWAPS[swap - 1]
    text = " ".join(words)
    return f"{text} number {suffix}" if suffix else text


# Similarities of paraphrase pairs, used as thresholds so that some
# decisions fall exactly on the boundary.
BOUNDARY_THETAS = tuple(
    cosine_similarity(trigram_counts(_claim(p, 0, 0)), trigram_counts(_claim(p, s, 0)))
    for p in range(len(PHRASES))
    for s in range(1, len(SWAPS) + 1)
)

thetas = st.one_of(st.sampled_from((0.3, 0.5, 0.8, 0.9)), st.sampled_from(BOUNDARY_THETAS))

ingest_ops = st.tuples(
    st.just("ingest"),
    st.integers(0, len(PHRASES) - 1),
    st.integers(0, len(SWAPS)),
    st.integers(0, 12),
    st.sampled_from((-1, 1)),
    st.sampled_from((Role.SEED, Role.SELF, Role.OPPONENT)),
    st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)),
)
flip_ops = st.tuples(st.just("flip"), st.integers(0, 10**6))
operations = st.lists(st.one_of(ingest_ops, ingest_ops, ingest_ops, flip_ops), min_size=8, max_size=80)


def make_record(claim, polarity, strength, role):
    return ArgumentRecord(
        claim=claim, polarity=polarity, strength=strength, role=role, embedding=embed_claim(claim)
    )


def brute_force_match(store: MemoryStore, new: ArgumentRecord):
    """The pre-index rule: loop cosine_similarity of claim counts over the
    active pool in insertion order; the first strictly greater similarity
    wins."""
    best, best_sim = None, -1.0
    for record in store.records:
        if not record.active or record.polarity != new.polarity:
            continue
        if new.role == Role.SELF and record.role not in (Role.SELF, Role.SEED):
            continue
        sim = cosine_similarity(trigram_counts(new.claim), trigram_counts(record.claim))
        if sim > best_sim:
            best, best_sim = record, sim
    return best, best_sim


def flags(store: MemoryStore):
    return [(r.active, r.archived_by) for r in store.records]


def ingest_and_check(store: MemoryStore, record: ArgumentRecord, theta: float, theta_self: float):
    threshold = theta_self if record.role == Role.SELF else theta
    best, best_sim = brute_force_match(store, record)
    expected = flags(store)
    outcome = ingest_record(store, record, theta, theta_self)

    if best is None:
        assert outcome.kept_new and outcome.matched_id is None and outcome.similarity is None
        expected.append((True, None))
    else:
        assert outcome.matched_id == best.id
        assert outcome.similarity.hex() == best_sim.hex()
        if best_sim < threshold:
            assert outcome.kept_new and outcome.superseded is None
            expected.append((True, None))
        elif record.strength > best.strength:
            assert outcome.kept_new and outcome.superseded is best
            expected[best.id] = (False, record.id)
            expected.append((True, None))
        else:
            assert not outcome.kept_new
            expected.append((False, best.id))
    assert flags(store) == expected
    return outcome


def apply(store: MemoryStore, ops, theta: float, theta_self: float):
    for op in ops:
        if op[0] == "flip":
            active = store.active_records()
            if active:
                store.archive(active[op[1] % len(active)], archived_by=None)  # archived from outside
            continue
        _, phrase, swap, suffix, polarity, role, strength = op
        record = make_record(_claim(phrase, swap, suffix), polarity, strength, role)
        ingest_and_check(store, record, theta, theta_self)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=operations, theta=thetas, theta_self=thetas)
def test_indexed_resolve_matches_brute_force(ops, theta, theta_self):
    store = MemoryStore()
    apply(store, ops, theta, theta_self)
    assert store.active_records() == [r for r in store.records if r.active]


@contextlib.contextmanager
def observed_matvecs():
    """Record the store's similarity products run inside the block: the
    matvec `np.dot(matrix, query)` and the pairwise `query.dot(row)`, the
    query being the counts of the store's cache entry for the claim (or
    their float64 copy).  A query of this subclass records the shape and
    dtype of the matrix or row it meets: np.dot hands it to its
    __array_function__, and the pairwise product is its own dot method.
    Yields the list of shapes and the list of (matrix or row, query)
    dtypes."""
    shapes = []
    dtypes = []

    class Query(np.ndarray):
        def __array_function__(self, func, types, args, kwargs):
            plain = [arg.view(np.ndarray) if isinstance(arg, Query) else arg for arg in args]
            if func is np.dot:
                matrix, query = plain
                shapes.append(matrix.shape)
                dtypes.append((matrix.dtype, query.dtype))
            return func(*plain, **kwargs)

        def dot(self, row):
            shapes.append(row.shape)
            dtypes.append((row.dtype, self.dtype))
            return self.view(np.ndarray).dot(row)

    text_of = MemoryStore._text

    def query_text(store, claim):
        counts, square = text_of(store, claim)
        return counts.view(Query), square

    with mock.patch.object(MemoryStore, "_text", query_text):
        yield shapes, dtypes


def test_self_query_multiplies_only_own_rows():
    """A self query's matvec reads the agent's own rows of the polarity,
    not the opponent rows beside them, and decides as the loop does."""
    store = MemoryStore()
    for i in range(120):
        store.insert(make_record(_claim(i % len(PHRASES), 0, i), 1, 0.5, Role.OPPONENT))
    for i in range(10):
        store.insert(make_record(_claim(i % len(PHRASES), i % 3, 20 + i), 1, 0.5, (Role.SEED, Role.SELF)[i % 2]))
    store.insert(make_record(_claim(0, 0, 0), -1, 0.5, Role.SELF))  # the other polarity
    own_rows = sum(r.active and r.polarity == 1 and r.role != Role.OPPONENT for r in store.records)

    with observed_matvecs() as (shapes, dtypes):
        # An exact repeat of an opponent claim, near one of the agent's own.
        ingest_and_check(store, make_record(_claim(1, 0, 1), 1, 0.25, Role.SELF), 0.8, 0.5)
    assert shapes == [(own_rows, EMBED_DIM)]
    assert dtypes == [(np.float32, np.float32)]  # short claims stay under the 2**48 bound


# Row counts around the pairwise limit (PAIRWISE_MAX rows, no block; one
# more, a block), the first block's first growth (GROWTH * PAIRWISE_MAX
# rows) and the largest set whose best row is picked in Python (SELECT_MAX
# rows; one more, by numpy's argmax).
PAIRWISE_MAX, SELECT_MAX = _RowSet.PAIRWISE_MAX, _RowSet.SELECT_MAX
FIRST_GROWTH = _RowSet.GROWTH * PAIRWISE_MAX
ROW_COUNTS = tuple(
    sorted(
        {0, 1, 7, 8, 9, 32, 33}
        | {PAIRWISE_MAX - 1, PAIRWISE_MAX, PAIRWISE_MAX + 1, FIRST_GROWTH, FIRST_GROWTH + 1}
        | {SELECT_MAX - 1, SELECT_MAX, SELECT_MAX + 1}
    )
)
# Two phrases and a paraphrase of each, so rows repeat often, and "a" *
# 5001, which queried against itself multiplies in float64 (4999**4 is
# above 2**48); a query may also be the last, a claim of no row.
ROW_CLAIMS = tuple(_claim(p, s, 0) for p in (0, 1) for s in (0, 1)) + ("a" * 5001, "an unrelated query")
MAX_REMOVALS = 6
MAX_ADDS = max(ROW_COUNTS) + MAX_REMOVALS


def repeat_behind(rows: int, claim: int = 0) -> list:
    """Claims for rows + 1 adds in which ids 1 and rows hold claim, and no
    other id does: removing id 0 moves id rows, the last row, into row 0,
    ahead of id 1, its exact repeat, so the lowest id among the best is
    not the first row that is best."""
    return [1, claim] + [2 + i % 2 for i in range(rows - 2)] + [claim] + [0] * (MAX_ADDS - rows - 1)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.sampled_from(ROW_COUNTS),
    claims=st.lists(st.integers(0, len(ROW_CLAIMS) - 2), min_size=MAX_ADDS, max_size=MAX_ADDS),
    removals=st.lists(st.integers(0, 32), max_size=MAX_REMOVALS),
    query=st.integers(0, len(ROW_CLAIMS) - 1),
)
# A tie behind the first best row on each side of each size boundary:
# with PAIRWISE_MAX rows added the set has no block and searches pair by
# pair; with one more it searches its block, and picks the best row in
# Python up to SELECT_MAX live rows, by argmax above.
@example(rows=PAIRWISE_MAX - 1, claims=repeat_behind(PAIRWISE_MAX - 1), removals=[0], query=0)
@example(rows=PAIRWISE_MAX, claims=repeat_behind(PAIRWISE_MAX), removals=[0], query=0)
@example(rows=SELECT_MAX, claims=repeat_behind(SELECT_MAX), removals=[0], query=0)
@example(rows=SELECT_MAX + 1, claims=repeat_behind(SELECT_MAX + 1), removals=[0], query=0)
# The same tie between two "a" * 5001 rows, queried in float64, pair by
# pair and in Python after the block's matvec.
@example(rows=PAIRWISE_MAX - 1, claims=repeat_behind(PAIRWISE_MAX - 1, 4), removals=[0], query=4)
@example(rows=SELECT_MAX, claims=repeat_behind(SELECT_MAX, 4), removals=[0], query=4)
def test_row_set_nearest_equals_a_loop_in_id_order(rows, claims, removals, query):
    """_RowSet.nearest returns what a loop over its live records in id
    order finds (the first strictly greater similarity wins, so the
    lowest id among equals), with the same similarity bits; and a set
    that has had at most PAIRWISE_MAX rows holds no block, while the next
    row stacks the rows into one float32 block with room for four times
    PAIRWISE_MAX, which grows fourfold when full."""
    texts = MemoryStore()  # only its per-text cache entries are used
    row_set = _RowSet()
    live = []
    adds = rows + len(removals)
    for record_id, claim in enumerate(claims[:adds]):
        record = ArgumentRecord(ROW_CLAIMS[claim], 1, 0.5, Role.OPPONENT, embedding=None, id=record_id)
        row_set.add(record, texts._text(record.claim))
        live.append(record)
    for pick in removals:
        row_set.remove(live.pop(pick % len(live)))

    query_counts = _counts(ROW_CLAIMS[query])
    best, best_sim = None, -1.0
    for record in sorted(live, key=lambda r: r.id):
        sim = cosine_similarity(query_counts, _counts(record.claim))
        if sim > best_sim:
            best, best_sim = record, sim
    found = row_set.nearest(texts._text(ROW_CLAIMS[query]))
    if best is None:
        assert found is None
    else:
        assert found[0] is best and found[1].hex() == best_sim.hex()

    if adds <= PAIRWISE_MAX:
        assert row_set.blocks == []
    else:
        capacity = PAIRWISE_MAX
        while capacity < adds:
            capacity *= 4
        [(counts, squares)] = row_set.blocks
        assert len(counts) == len(squares) == capacity
        assert counts.dtype == np.float32


# The row claims, "a" * 5001 last, with a query "a" * 4097 against it:
# 4095**2 times 4999**2 is above 2**48, so that query multiplies every block
# in float64 once the long row is in the set.
BLOCK_CLAIMS = ROW_CLAIMS[:-1]
BLOCK_QUERIES = ROW_CLAIMS + ("a" * 4097,)


@settings(max_examples=200, deadline=None)
@given(
    block=st.sampled_from((3, 4, 16)),
    pairwise_max=st.sampled_from((0, 2, _RowSet.PAIRWISE_MAX)),
    claims=st.lists(st.integers(0, len(BLOCK_CLAIMS) - 1), min_size=1, max_size=60),
    removals=st.lists(st.tuples(st.integers(0, 59), st.integers(0, 63)), max_size=20),
)
# Ids 0, 3 and 6 repeat one claim; removing id 0 moves id 6, the last row
# (block 2), into row 0 (block 0), so the lowest id among equals, 3, is in a
# later block than the first row that is best.
@example(block=3, pairwise_max=2, claims=[0, 1, 2, 0, 1, 2, 0], removals=[(6, 0)])
# The long row is the only row of block 2.
@example(block=3, pairwise_max=2, claims=[0, 1, 2, 3, 0, 1, 4], removals=[])
def test_row_set_blocks_equal_a_loop_in_id_order(block, pairwise_max, claims, removals):
    """With BLOCK patched small, a few dozen rows span several blocks:
    after adds and swap-removes (each removal, after the add it names,
    moves the last row, often from a later block, into the hole),
    _RowSet.nearest returns what a loop over the live records in id
    order finds, with the same similarity bits, for every query, the
    float64 one included; each block holds its rows' counts and squares,
    the search runs one matvec per block over its live rows, and a block
    of BLOCK rows is never copied."""
    texts = MemoryStore()  # only its per-text cache entries are used
    with mock.patch.object(_RowSet, "BLOCK", block), mock.patch.object(_RowSet, "PAIRWISE_MAX", pairwise_max):
        row_set = _RowSet()
        live = []
        most = 0  # the most rows the set has held
        full = []  # the blocks of BLOCK rows, a prefix of the blocks
        for record_id, claim in enumerate(claims):
            record = ArgumentRecord(BLOCK_CLAIMS[claim], 1, 0.5, Role.OPPONENT, embedding=None, id=record_id)
            row_set.add(record, texts._text(record.claim))
            live.append(record)
            most = max(most, len(live))
            for after, pick in removals:
                if after == record_id and live:
                    row_set.remove(live.pop(pick % len(live)))
            assert all(kept is now for kept, (now, _) in zip(full, row_set.blocks))
            full = [counts for counts, _ in row_set.blocks if len(counts) == block]
            assert len(full) >= len(row_set.blocks) - 1

        n = len(live)
        assert len(row_set.blocks) == (0 if most <= pairwise_max else -(-most // block))
        for row, (counts, square) in enumerate(row_set.texts if row_set.blocks else ()):
            block_counts, block_squares = row_set.blocks[row // block]
            assert np.array_equal(block_counts[row % block], counts) and block_squares[row % block] == square
        for query in BLOCK_QUERIES:
            best, best_sim = None, -1.0
            for record in sorted(live, key=lambda r: r.id):
                sim = cosine_similarity(_counts(query), _counts(record.claim))
                if sim > best_sim:
                    best, best_sim = record, sim
            with observed_matvecs() as (shapes, dtypes):
                found = row_set.nearest(texts._text(query))
            if best is None:
                assert found is None
                continue
            assert found[0] is best and found[1].hex() == best_sim.hex()
            if n > pairwise_max:
                assert shapes == [(min(block, n - start), EMBED_DIM) for start in range(0, n, block)]
                wide = oracle_square(query) * row_set.square_max >= 2**48
                assert dtypes == [(np.float32, np.float64 if wide else np.float32)] * len(shapes)


def test_a_row_set_of_2100_rows_copies_no_full_block():
    """Unpatched: the first block grows to 1024 rows, and every later
    1024 rows get a block of their own, so no block reaches 4 MiB (numpy's
    huge-page size) and the blocks that hold 1024 rows are the same
    arrays 1,076 rows later; the search still keeps the lowest id."""
    texts = MemoryStore()  # only its per-text cache entries are used
    row_set = _RowSet()
    entries = [texts._text(claim) for claim in ROW_CLAIMS]
    for record_id in range(2100):
        claim = record_id % len(ROW_CLAIMS)
        row_set.add(ArgumentRecord(ROW_CLAIMS[claim], 1, 0.5, Role.OPPONENT, embedding=None, id=record_id), entries[claim])
        if record_id == 1023:
            (first,) = row_set.blocks
            assert first[0].shape == (1024, EMBED_DIM)
    assert row_set.BLOCK == 1024
    assert [counts.shape for counts, _ in row_set.blocks] == [(1024, EMBED_DIM)] * 3
    assert all(counts.dtype == np.float32 and counts.nbytes == 2 * 2**20 for counts, _ in row_set.blocks)
    assert row_set.blocks[0][0] is first[0] and row_set.blocks[0][1] is first[1]
    found, similarity = row_set.nearest(entries[2])
    assert (found.id, similarity) == (2, 1.0)


@functools.lru_cache(maxsize=1024)  # long claims are looked up many times; callers only read
def oracle_counts(claim: str) -> Counter:
    """Bucket -> trigram count, from blake2b alone."""
    text = claim.strip().lower()
    grams = [text[i : i + 3] for i in range(len(text) - 2)] if len(text) >= 3 else [text]
    return Counter(
        int.from_bytes(hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest(), "big") % EMBED_DIM
        for gram in grams
    )


def oracle_similarity(a: str, b: str) -> float:
    """Cosine similarity of two claims' counts from Python ints: the dot
    products are exact, then one multiply, sqrt and divide."""
    ca, cb = oracle_counts(a), oracle_counts(b)
    dot = sum(n * cb[bucket] for bucket, n in ca.items())
    qa = sum(n * n for n in ca.values())
    qb = sum(n * n for n in cb.values())
    return dot / math.sqrt(qa * qb)


oracle_claims = st.text(alphabet="ab cD", min_size=1, max_size=14).filter(str.strip)


@settings(max_examples=200, deadline=None)
@given(
    claims=st.lists(oracle_claims, min_size=1, max_size=16),
    archived=st.lists(st.integers(0, 15), max_size=6),
    query=oracle_claims,
)
# Archiving id 0 moves id 3 into row 0: equal similarities, 1.0 for an
# identical claim and 0.0 for no shared trigram, must still keep id 1.
@example(claims=["aaa", "bbb", "ccc", "bbb"], archived=[0], query="bbb")
@example(claims=["aaa", "bbb", "ccc", "bbb"], archived=[0], query="aaa")
@example(claims=["parks matter"], archived=[], query="  Parks Matter ")
def test_similarity_bits_equal_an_integer_oracle(claims, archived, query):
    """The store's nearest record and its similarity, bitwise, are those
    of the integer oracle looped over the active records in id order: the
    first strictly greater similarity wins, so equal ones keep the lowest
    id even after a removal has moved rows.  Records hold unit vectors;
    the store searches their claims' counts."""
    store = MemoryStore()
    for claim in claims:
        store.insert(make_record(claim, 1, 0.5, Role.OPPONENT))
    for index in archived:
        record = store.records[index % len(store.records)]
        if record.active:
            store.archive(record, archived_by=None)
    best, best_sim = None, -1.0
    for record in store.active_records():
        sim = oracle_similarity(query, record.claim)
        if sim > best_sim:
            best, best_sim = record, sim

    found = store.nearest(make_record(query, 1, 0.5, Role.OPPONENT))
    if best is None:
        assert found is None
    else:
        assert found[0] is best
        assert found[1].hex() == best_sim.hex()
    for claim in claims:
        expected = oracle_similarity(query, claim)
        assert cosine_similarity(trigram_counts(query), trigram_counts(claim)).hex() == expected.hex()
        if query.strip().lower() == claim.strip().lower():
            assert expected == 1.0
        if not oracle_counts(query).keys() & oracle_counts(claim).keys():
            assert expected == 0.0


def _long_claim(length: int, edits: list) -> str:
    text = ["a"] * length
    for position, char in edits:
        text[position % length] = char
    return "".join(text)


# Claims of about 4096 characters, mostly "a", so nearly all of a claim's
# counts sit in the "aaa" bucket and its norm |c| is close to its length:
# the norms of a query and of the longest row straddle |q| * |c| = 2**24
# (|q|^2 * square_max = 2**48, at 4096 each), and a dot product is close
# to |q| * |c|, so above the bound a float32 one would round.
long_claims = st.builds(
    _long_claim, st.integers(4080, 4112), st.lists(st.tuples(st.integers(0, 5000), st.sampled_from("bB c")), max_size=4)
)


@settings(max_examples=60, deadline=None)
@given(claims=st.lists(long_claims, min_size=1, max_size=4), query=long_claims, short=st.booleans())
# An exact repeat of "a" * 5001: in float32 its dot product, 4999**2,
# rounds.
@example(claims=["a" * 5001], query="a" * 5001, short=False)
# |q| * |c| = 4095 * 4096 for the longest row, just below the bound, then
# 4096 * 4096.
@example(claims=["a" * 4098, "a" * 4097], query="a" * 4097, short=True)
@example(claims=["a" * 4098, "a" * 4097], query="a" * 4098, short=True)
def test_long_claim_similarity_bits_equal_an_integer_oracle(claims, query, short):
    """Around and above |q|^2 * square_max = 2**48 the store's nearest
    record and similarity, bitwise, are still the integer oracle's,
    whether the matvec ran in float32 (below the bound) or float64 (at or
    above it); and so is the similarity of each claim queried against
    all."""
    store = MemoryStore()
    if short:
        store.insert(make_record("a short claim", 1, 0.5, Role.OPPONENT))
    for claim in claims:
        store.insert(make_record(claim, 1, 0.5, Role.OPPONENT))
    for probe in [query, *claims]:
        best, best_sim = None, -1.0
        for record in store.active_records():
            sim = oracle_similarity(probe, record.claim)
            if sim > best_sim:
                best, best_sim = record, sim
        found, similarity = store.nearest(make_record(probe, 1, 0.5, Role.OPPONENT))
        assert found is best
        assert similarity.hex() == best_sim.hex()
        if probe in claims:
            assert similarity == 1.0


def oracle_square(claim: str) -> int:
    """|c|^2 of a claim's counts, from the integer oracle."""
    return sum(n * n for n in oracle_counts(claim).values())


def assert_oracle_nearest(store: MemoryStore, probe: str) -> None:
    """MemoryStore.nearest finds for probe the record, and the similarity
    bits, that the integer oracle finds looping over the active records
    in id order."""
    best, best_sim = None, -1.0
    for record in store.active_records():
        sim = oracle_similarity(probe, record.claim)
        if sim > best_sim:
            best, best_sim = record, sim
    found, similarity = store.nearest(make_record(probe, 1, 0.5, Role.OPPONENT))
    assert found is best
    assert similarity.hex() == best_sim.hex()


def test_square_max_follows_the_active_rows():
    """square_max is the largest |c|^2 among the active rows: archiving
    the only 5001-character record brings it down to the next one's, and
    archiving a shorter record leaves it.  The set has no block, so a
    query takes one dot product per row, every one in the precision the
    search chose from square_max: a 4097-character query (|q| = 4095)
    multiplies every row in float64, since 4095 * 4999 > 2**24 for "a" *
    5001 (|c| = 4999).  Once that record is gone a 5090-character query
    multiplies every row in float32 (|q|^2 * square_max < 2**48; with
    4999**2 it would not).  Both get the integer oracle's match and
    similarity bits."""
    store = MemoryStore()
    claims = ["a" * 5001, "a" * 3000 + "b", "a short claim", "b" + "a" * 1200]
    for claim in claims:
        store.insert(make_record(claim, 1, 0.5, Role.OPPONENT))
    rows = store._by_polarity[1].every
    assert rows.square_max == 4999**2
    with observed_matvecs() as (shapes, dtypes):
        assert_oracle_nearest(store, "a" * 4097)
    assert shapes == [(EMBED_DIM,)] * 4
    assert dtypes == [(np.float32, np.float64)] * 4
    store.archive(store.records[0], archived_by=None)
    assert rows.square_max == oracle_square(claims[1])
    store.archive(store.records[2], archived_by=None)
    assert rows.square_max == oracle_square(claims[1])
    assert sorted(square for _, square in rows.texts) == sorted(oracle_square(r.claim) for r in rows.records)

    query = "a" * 5000 + "b" * 90
    assert oracle_square(query) * rows.square_max < 2**48 <= oracle_square(query) * 4999**2
    with observed_matvecs() as (_, dtypes):
        assert_oracle_nearest(store, query)
    assert dtypes == [(np.float32, np.float32)] * 2
    store.archive(store.records[1], archived_by=None)
    store.archive(store.records[3], archived_by=None)
    assert rows.square_max == 0


def _words_claim(seed: int, length: int) -> str:
    """length characters of seed-corpus words in a seeded random order."""
    words = [word for candidate in CORPUS for word in candidate.claim.split()]
    rng = random.Random(seed)
    text = ""
    while len(text) < length:
        text += rng.choice(words) + " "
    return text[:length]


def test_long_claims_of_words_multiply_in_float32():
    """Claims of 8,000 characters of seed-corpus words have norms |c| near
    530, far below their lengths, so a query of one multiplies each row
    of the others in float32 (|q|^2 |c|^2 < 2**48) and gets the integer
    oracle's match and similarity bits."""
    store = MemoryStore()
    claims = [_words_claim(seed, 8000) for seed in range(3)] + ["a short claim"]
    for claim in claims:
        store.insert(make_record(claim, 1, 0.5, Role.OPPONENT))
    assert store._by_polarity[1].every.square_max < 1000**2
    for probe in [_words_claim(3, 8000), *claims]:
        with observed_matvecs() as (_, dtypes):
            assert_oracle_nearest(store, probe)
        assert dtypes == [(np.float32, np.float32)] * len(claims)


# Claims of about 4100 characters whose |c|^2 straddles 2**24, the bound at
# which a product with another such claim leaves float32 ("a" * 4098 has
# |c|^2 = 2**24); an exact repeat of "a" * 5001 has the odd dot product 4999**2, which float32
# would round.  They differ in composition, so similarities between them
# are not all 1.
LONG_CLAIMS = ("a" * 4097, "a" * 4098, "a" * 5001, "a" * 4000 + "b" * 97, "b" + "a" * 4096 + "c")


@functools.lru_cache(maxsize=None)
def _counts(claim: str) -> np.ndarray:
    return trigram_counts(claim)


message_claims = st.one_of(
    st.tuples(st.integers(0, len(PHRASES) - 1), st.integers(0, len(SWAPS)), st.integers(0, 2)).map(
        lambda drawn: _claim(*drawn)
    ),
    st.sampled_from(LONG_CLAIMS),
)
message_candidates = st.tuples(
    message_claims,
    st.sampled_from((-1, 1)),
    st.sampled_from((Role.SEED, Role.SELF, Role.OPPONENT)),
    st.sampled_from((0.25, 0.5, 0.75, 1.0)),
)


def oracle_messages(messages, theta: float, theta_self: float):
    """The brute-force rule, one candidate at a time: its pool is every
    active record of its polarity (only self and seed ones for a self
    candidate), its match the cosine_similarity maximum over that pool in
    id order (the first strictly greater wins, so ties keep the lowest
    id), and the _settle rule decides.  Returns each candidate's expected
    (active, similarity, matched_id, archived_id) as it is settled, and
    every record's final (active, archived_by)."""
    records = []  # [claim, polarity, role, strength, active, archived_by]
    decisions = []
    for message in messages:
        for claim, polarity, role, strength in message:
            best, best_sim = None, None
            for index, (other, other_polarity, other_role, _, active, _) in enumerate(records):
                if not active or other_polarity != polarity:
                    continue
                if role == Role.SELF and other_role not in (Role.SELF, Role.SEED):
                    continue
                sim = cosine_similarity(_counts(claim), _counts(other))
                if best is None or sim > best_sim:
                    best, best_sim = index, sim
            new = [claim, polarity, role, strength, True, None]
            archived = None
            if best is not None and best_sim >= (theta_self if role == Role.SELF else theta):
                if strength > records[best][3]:
                    records[best][4:] = [False, len(records)]
                    archived = best
                else:
                    new[4:] = [False, best]
            records.append(new)
            decisions.append((new[4], best_sim, best, archived))
    return decisions, [(active, archived_by) for *_, active, archived_by in records]


# The last claim is equally similar (7/8) to a record of the message before
# and to an earlier record of its own message: the lower id wins.
TIE_MESSAGES = [
    [("xbcdefghij", 1, Role.OPPONENT, 0.5)],
    [("abcdefghix", 1, Role.OPPONENT, 0.5), ("abcdefghij", 1, Role.OPPONENT, 0.5)],
]


def bits(active, similarity, matched_id, archived_id):
    return active, similarity if similarity is None else similarity.hex(), matched_id, archived_id


def decision(record: ArgumentRecord, outcome) -> tuple:
    """A judged record's decision, similarity bits included."""
    superseded = outcome.superseded.id if outcome.superseded is not None else None
    return bits(record.active, outcome.similarity, outcome.matched_id, superseded)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    messages=st.lists(st.lists(message_candidates, min_size=1, max_size=7), min_size=1, max_size=5),
    theta=thetas,
    theta_self=thetas,
    pairwise_max=st.sampled_from((0, _RowSet.PAIRWISE_MAX)),
)
# One message: paraphrase 1 supersedes the weaker base claim, and the
# later exact repeat of the base claim, whose best match would be the
# archived record, matches the paraphrase instead; a self repeat sees
# only the seed and self records; the long repeats take float64 dot
# products, from the matrix.
@example(
    messages=[
        [
            (_claim(0, 0, 0), 1, Role.OPPONENT, 0.25),
            (_claim(0, 1, 0), 1, Role.SEED, 0.75),
            (_claim(0, 0, 0), 1, Role.OPPONENT, 0.5),
            (_claim(0, 0, 0), 1, Role.SELF, 1.0),
            (_claim(0, 0, 0), -1, Role.OPPONENT, 0.5),
            ("a" * 5001, 1, Role.OPPONENT, 0.5),
            ("a" * 5001, 1, Role.OPPONENT, 0.75),
        ],
        [(_claim(0, 2, 0), 1, Role.SELF, 0.25), ("a" * 4097, 1, Role.OPPONENT, 0.5)],
    ],
    theta=BOUNDARY_THETAS[0],
    theta_self=0.5,
    pairwise_max=0,
)
# The same, pair by pair.
@example(
    messages=[
        [
            (_claim(0, 0, 0), 1, Role.OPPONENT, 0.25),
            (_claim(0, 1, 0), 1, Role.SEED, 0.75),
            (_claim(0, 0, 0), 1, Role.OPPONENT, 0.5),
            (_claim(0, 0, 0), 1, Role.SELF, 1.0),
            (_claim(0, 0, 0), -1, Role.OPPONENT, 0.5),
            ("a" * 5001, 1, Role.OPPONENT, 0.5),
            ("a" * 5001, 1, Role.OPPONENT, 0.75),
        ],
        [(_claim(0, 2, 0), 1, Role.SELF, 0.25), ("a" * 4097, 1, Role.OPPONENT, 0.5)],
    ],
    theta=BOUNDARY_THETAS[0],
    theta_self=0.5,
    pairwise_max=_RowSet.PAIRWISE_MAX,
)
# Every claim below |c|^2 = 2**24: every product stays in float32.
@example(
    messages=[[("a" * 4097, 1, Role.OPPONENT, 0.25), ("b" + "a" * 4096 + "c", 1, Role.OPPONENT, 0.5)]],
    theta=0.9,
    theta_self=0.5,
    pairwise_max=0,
)
@example(messages=TIE_MESSAGES, theta=0.9, theta_self=0.5, pairwise_max=0)
@example(messages=TIE_MESSAGES, theta=0.9, theta_self=0.5, pairwise_max=_RowSet.PAIRWISE_MAX)
def test_claims_judged_one_by_one_equal_a_brute_force_oracle(messages, theta, theta_self, pairwise_max):
    """Candidates judged one at a time, across several messages, take the
    oracle's decisions: each one's active flag as it is settled, its
    nearest record's id and similarity bits, and the record it archives;
    and every record ends with the oracle's flags.  Each is searched for
    among the store's rows, pair by pair up to pairwise_max rows and by
    matvec above that (with pairwise_max 0, always by matvec).  After the
    last message the index holds exactly the active records."""
    expected, final = oracle_messages(messages, theta, theta_self)
    store = MemoryStore()
    decisions = []
    with mock.patch.object(_RowSet, "PAIRWISE_MAX", pairwise_max):
        for message in messages:
            for candidate in message:
                judged = judge(store, CandidateArgument(*candidate), DEFAULT_TOPIC, None, theta, theta_self)
                decisions.append(decision(*judged))

    assert decisions == [bits(*expected_decision) for expected_decision in expected]
    assert flags(store) == final
    for polarity in (1, -1):
        index = store._by_polarity[polarity]
        active = [r for r in store.records if r.active and r.polarity == polarity]
        assert sorted(r.id for r in index.every.records) == [r.id for r in active]
        assert sorted(r.id for r in index.own.records) == [r.id for r in active if r.role != Role.OPPONENT]
        assert index.ranked == sorted(active, key=lambda r: (-r.strength, r.id))


retrieve_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.sampled_from((-1, 1)),
            st.sampled_from((0.0, 0.25, 0.5, 1.0)),
            st.sampled_from((Role.SEED, Role.SELF, Role.OPPONENT)),
        ),
        st.tuples(st.just("archive"), st.integers(0, 10**6)),
        st.tuples(st.just("flip"), st.integers(0, 10**6)),
        st.tuples(st.just("rescale"), st.integers(0, 10**6), st.sampled_from((0.5, 0.999, 1.0))),
        st.tuples(
            st.just("rescale_many"), st.integers(0, 10**6), st.integers(2, 20), st.sampled_from((0.0, 0.3, 0.999, 1.0))
        ),
    ),
    max_size=60,
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=retrieve_ops, k=st.integers(1, 12))
@example(ops=[("insert", 1, 1.0, Role.SEED), ("insert", 1, 1.0, Role.SELF), ("rescale", 0, 0.5)], k=2)
@example(
    ops=[
        ("insert", -1, 0.5, Role.OPPONENT),
        ("insert", -1, 1.0, Role.SEED),
        ("insert", -1, 1.0, Role.SEED),
        ("archive", 2),
        ("rescale_many", 1, 2, 0.3),
    ],
    k=2,
)
def test_retrieve_matches_brute_force_sort(ops, k):
    """After every insert, archive or rescale of one record or of several
    at once, archived ones included (as seeding rescales every seed),
    retrieval from the index pools equals a (-strength, id) sort of each
    polarity's active records.  A direct flip of a stored record's flag,
    or an archive of an archived record, raises and changes nothing."""
    store = MemoryStore()
    for op in ops:
        if op[0] == "insert":
            store.insert(make_record(f"claim {len(store)}", op[1], op[2], op[3]))
        elif store.records:
            record = store.records[op[1] % len(store.records)]
            if op[0] == "archive" and record.active:
                store.archive(record, archived_by=None)
            elif op[0] in ("archive", "flip"):
                before = flags(store), store.revision
                with pytest.raises(ContractError):
                    if op[0] == "archive":
                        store.archive(record, archived_by=None)
                    else:
                        record.active = False
                assert (flags(store), store.revision) == before
            elif op[0] == "rescale":
                store.rescale([record], op[2])
            else:
                start = op[1] % len(store.records)
                store.rescale(store.records[start : start + op[2]], op[3])
        context = retrieve(store, k)
        ranked = {
            polarity: [r.id for r in sorted(store, key=lambda r: (-r.strength, r.id)) if r.active and r.polarity == polarity]
            for polarity in (1, -1)
        }
        assert context.k_plus + context.k_minus == k
        assert [r.id for r in context.records] == ranked[1][: context.k_plus] + ranked[-1][: context.k_minus]


CORPUS = load_scripted_claims(bundled_text("seeds.txt"))

message_lines = st.lists(
    st.tuples(
        st.integers(0, len(PHRASES) - 1),
        st.integers(0, len(SWAPS)),
        st.integers(0, 6),
        st.sampled_from("+-"),
        st.sampled_from(("0.1", "0.35", "0.5", "0.8125", "0.9")),
    ),
    min_size=0,
    max_size=4,
)


def resummed_log_odds(events) -> float:
    """L re-derived from the trace alone: each id's polarity, strength and
    role from its stored event, its strength times each rescaled factor
    that names it, and p*log1p(s*gamma) under the header's (u, a), summed
    in id order from zero over the ids still active at the end."""
    records, active = {}, {}
    for event in events:
        payload = event.payload
        if event.kind == "header":
            profile = UAProfile(payload["uptake"], payload["anchoring"])
        elif event.kind == "stored":
            records[payload["id"]] = [payload["polarity"], payload["strength"], payload["role"]]
            active[payload["id"]] = payload["active"]
            if payload["archived_id"] is not None:
                active[payload["archived_id"]] = False
        elif event.kind == "rescaled":
            for record_id in payload["ids"]:
                records[record_id][1] *= payload["factor"]
    total = 0.0
    for record_id in sorted(records):
        if active[record_id]:
            polarity, strength, role = records[record_id]
            gamma = profile.anchoring if role == "seed" else profile.uptake
            total += polarity * math.log1p(strength * gamma)
    return total


def play_dialogue(profile, seedings, rounds, check=lambda agent: None, theta=0.8, theta_self=0.5):
    """An agent seeded at the drawn rounds that hears each drawn opponent
    message and, where drawn, replies to itself; check runs after every
    seeding and every processed message."""
    agent = make_agent("prop", DEFAULT_TOPIC, profile, theta=theta, theta_self=theta_self)
    for index, (lines, reply) in enumerate(rounds):
        for seed_round, target, rng_seed in seedings:
            if seed_round == index:
                # A second seeding rescales seeds already folded into L.
                seed_agent(agent, CORPUS, 6, target, rng=random.Random(rng_seed))
                check(agent)
        text = "\n".join(
            f"CLAIM {sign}{strength}: {_claim(phrase, swap, suffix)}"
            for phrase, swap, suffix, sign, strength in lines
        )
        process_message(agent, Message(text=text, author_role="opponent", order=agent.next_order()))
        check(agent)
        if reply:
            message, _ = compose_response(agent)
            process_message(agent, message)
            check(agent)
    return agent


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    uptake=st.floats(0.0, 1.0),
    anchoring=st.floats(0.0, 1.5),
    seedings=st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from((0.0, 0.3, -0.5, 0.75, 0.99)), st.integers(0, 1000)),
        min_size=1,
        max_size=2,
    ),
    rounds=st.lists(st.tuples(message_lines, st.booleans()), min_size=1, max_size=12),
)
def test_incremental_belief_equals_batch_fold(uptake, anchoring, seedings, rounds):
    profile = UAProfile(uptake=uptake, anchoring=anchoring)

    def batch_fold_holds(agent):
        assert agent.belief.log_odds == compute_log_odds(agent.memory.active_records(), profile)

    agent = play_dialogue(profile, seedings, rounds, batch_fold_holds)
    replayed = verify_trace(agent.trace)
    assert replayed.log_odds == agent.belief.log_odds
    assert replayed.log_odds == resummed_log_odds(agent.trace)


# The single-field edits, by field: the event kind that carries it (None:
# every event) and four replacements of its value, some of a wrong type.
TRACE_FIELD_EDITS = {
    "contribution": ("stored", lambda v: (v + 1e-6, -v, 0.0, math.nan)),
    "active": ("stored", lambda v: (not v, not v, None, 1)),
    "archived_id": ("stored", lambda v: (None, 0, (v or 0) + 1, 2.5)),
    "polarity": ("stored", lambda v: (-v, -v, 0, True)),
    "strength": ("stored", lambda v: (v / 2, 1.0 - v, 2.0, "0.5")),
    "role": ("stored", lambda v: ("seed" if v != "seed" else "opponent", "self", "judge", None)),
    "factor": ("rescaled", lambda v: (v * 2, v / 2, -v, math.nan)),
    "L_after": ("updated", lambda v: (v + 1e-13, v + 1e-9, math.nan, True)),
    "seq": (None, lambda v: (v - 1, v + 1, v + 1000, 0)),
}
trace_edits = st.lists(
    st.one_of(
        st.tuples(st.just("field"), st.sampled_from(sorted(TRACE_FIELD_EDITS)), st.integers(0, 10**6), st.integers(0, 3)),
        st.tuples(st.just("delete"), st.integers(0, 10**6)),
        st.tuples(st.just("swap"), st.integers(0, 10**6)),
    ),
    max_size=3,
)


def edit_trace_rows(rows: list, edits) -> None:
    """Apply field edits, line deletions and swaps of adjacent lines."""
    for op, *args in edits:
        if not rows:
            return
        if op == "delete":
            del rows[args[0] % len(rows)]
        elif op == "swap":
            i = args[0] % len(rows)
            j = (i + 1) % len(rows)
            rows[i], rows[j] = rows[j], rows[i]
        else:
            key, pick, variant = args
            kind, replacements = TRACE_FIELD_EDITS[key]
            targets = [row for row in rows if kind is None or row["kind"] == kind]
            if targets:
                holder = targets[pick % len(targets)]
                if key != "seq":
                    holder = holder["payload"]
                holder[key] = replacements(holder[key])[variant]


# Round 0 stores a claim, round 1 repeats it stronger: the repeat archives
# the first record, so the next update sums the active set again.
ARCHIVING_ROUNDS = [([(0, 0, 0, "+", "0.35"), (1, 0, 0, "-", "0.5")], False), ([(0, 0, 0, "+", "0.9")], True)]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    profile=st.builds(UAProfile, uptake=st.floats(0.0, 1.0), anchoring=st.floats(0.0, 1.5)),
    seedings=st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from((0.0, 0.3, -0.5, 0.75, 0.99)), st.integers(0, 1000)),
        max_size=2,
    ),
    rounds=st.lists(st.tuples(message_lines, st.booleans()), min_size=1, max_size=12),
    edits=trace_edits,
)
@example(profile=UAProfile(uptake=0.4, anchoring=0.2), seedings=[(0, 0.3, 1)], rounds=ARCHIVING_ROUNDS, edits=[])
@example(
    profile=UAProfile(uptake=0.4, anchoring=0.2),
    seedings=[],
    rounds=ARCHIVING_ROUNDS,
    edits=[("field", "archived_id", 2, 0)],  # the archival is undone, so L_after diverges
)
def test_streamed_verification_equals_verify_trace(tmp_path_factory, profile, seedings, rounds, edits):
    agent = play_dialogue(profile, seedings, rounds)
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    write_trace(path, agent.trace)
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    edit_trace_rows(rows, edits)
    path.write_text("".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows), encoding="utf-8")

    events = read_trace(path)
    try:
        expected = verify_trace(events)
    except TraceVerificationError as exc:
        with pytest.raises(TraceVerificationError) as error:
            verify_trace_file(path)
        assert str(error.value) == str(exc)
        return
    final, count = verify_trace_file(path)
    assert count == len(events)
    assert (final.log_odds.hex(), final.stance.hex()) == (expected.log_odds.hex(), expected.stance.hex())


def record_fields(store: MemoryStore):
    return [(r.id, r.claim, r.polarity, repr(r.strength), r.role, r.active, r.archived_by) for r in store]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    profile=st.builds(UAProfile, uptake=st.floats(0.0, 1.0), anchoring=st.floats(0.0, 1.5)),
    seedings=st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from((0.0, 0.3, -0.5, 0.75, 0.99)), st.integers(0, 1000)),
        max_size=2,
    ),
    rounds=st.lists(st.tuples(message_lines, st.booleans()), min_size=1, max_size=12),
    after=operations,
    theta=thetas,
    theta_self=thetas,
)
@example(
    profile=UAProfile(uptake=0.4, anchoring=0.2),
    seedings=[(0, 0.3, 1), (1, -0.5, 2)],
    rounds=ARCHIVING_ROUNDS,
    after=[("ingest", 0, 0, 0, 1, Role.SELF, 1.0), ("ingest", 1, 0, 0, -1, Role.OPPONENT, 0.5)],
    theta=0.8,
    theta_self=0.5,
)
def test_store_from_trace_equals_the_live_store(profile, seedings, rounds, after, theta, theta_self):
    """The store rebuilt from an engine run's trace, with its seed
    rescales, self turns, superseded records and deduplication losers,
    equals the run's store field by field, and resolves further ingests
    as the run's store does."""
    agent = play_dialogue(profile, seedings, rounds)
    store, rebuilt = agent.memory, store_from_trace(agent.trace)
    assert record_fields(rebuilt) == record_fields(store)
    assert rebuilt.insertion_counter == store.insertion_counter
    for op in after:
        if op[0] == "flip":
            continue
        _, phrase, swap, suffix, polarity, role, strength = op
        claim = _claim(phrase, swap, suffix)
        original = ingest_and_check(store, make_record(claim, polarity, strength, role), theta, theta_self)
        reloaded = ingest_and_check(rebuilt, make_record(claim, polarity, strength, role), theta, theta_self)
        assert (original.kept_new, original.matched_id) == (reloaded.kept_new, reloaded.matched_id)
        assert repr(original.similarity) == repr(reloaded.similarity)
    assert record_fields(rebuilt) == record_fields(store)


# Lines of paraphrases of two phrases: their similarities run from about
# 0.08 to 0.98, so they fall on both sides of the thresholds drawn, where
# the default traces hold only 1.0 and values up to 0.459.
paraphrase_lines = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.integers(0, len(SWAPS)),
        st.integers(0, 2),
        st.sampled_from("+-"),
        st.sampled_from(("0.1", "0.35", "0.5", "0.8125", "0.9")),
    ),
    min_size=1,
    max_size=4,
)
PARAPHRASE_ROUNDS = [
    ([(0, 0, 0, "+", "0.5"), (0, 1, 0, "+", "0.35"), (0, 2, 1, "+", "0.9")], True),
    ([(0, 3, 0, "+", "0.8125"), (1, 0, 0, "-", "0.5"), (1, 4, 2, "-", "0.1")], True),
]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    profile=st.builds(UAProfile, uptake=st.floats(0.0, 1.0), anchoring=st.floats(0.0, 1.5)),
    seedings=st.lists(st.tuples(st.integers(0, 3), st.sampled_from((0.0, 0.3, -0.5)), st.integers(0, 1000)), max_size=1),
    rounds=st.lists(st.tuples(paraphrase_lines, st.booleans()), min_size=1, max_size=10),
    theta=thetas,
    theta_self=thetas,
    moved=st.sampled_from(("theta", "theta_self")),
    pick=st.integers(0, 10**6),
)
@example(
    profile=UAProfile(uptake=0.4, anchoring=0.2),
    seedings=[],
    rounds=PARAPHRASE_ROUNDS,
    theta=0.8,
    theta_self=0.8,
    moved="theta",
    pick=0,
)
def test_store_from_trace_rederives_each_deduplication_decision(
    profile, seedings, rounds, theta, theta_self, moved, pick
):
    """The store rebuilt from a dialogue of paraphrases equals the live
    store.  With the header's theta (or theta_self) moved across one
    recorded similarity of a non-self (or self) record, the rebuild fails
    at the first stored event whose decision the move flips, while
    verify_trace, which trusts the decisions, still passes."""
    agent = play_dialogue(profile, seedings, rounds, theta=theta, theta_self=theta_self)
    assert record_fields(store_from_trace(agent.trace)) == record_fields(agent.memory)

    threshold = agent.trace[0].payload[moved]
    searched = [
        event
        for event in agent.trace
        if event.kind == "stored"
        and event.payload["similarity"] is not None
        and (event.payload["role"] == "self") == (moved == "theta_self")
    ]
    crossable = [event.payload["similarity"] for event in searched if event.payload["similarity"] < 1.0]
    if not crossable:
        return
    similarity = crossable[pick % len(crossable)]
    moved_to = similarity if similarity < threshold else math.nextafter(similarity, math.inf)
    flipped = next(
        event
        for event in searched
        if (event.payload["similarity"] >= threshold) != (event.payload["similarity"] >= moved_to)
    )
    events = [TraceEvent(0, "header", {**agent.trace[0].payload, moved: moved_to}), *agent.trace[1:]]
    assert verify_trace(events) == verify_trace(agent.trace)
    with pytest.raises(TraceVerificationError, match=f"^event {flipped.seq}: stored (active|archived_id) "):
        store_from_trace(events)


def scan_to_the_end(seeds, anchoring: float, target: float) -> float:
    """The seed scale as chosen before the scan stopped early: bisection,
    then all 4096 nextafter steps unless a new candidate is exact."""

    def stance_at(scale):  # the seeds' terms added left to right from 0.0, as the engine folds them
        log_odds = 0.0
        for p, s in seeds:
            log_odds += p * math.log1p(scale * s * anchoring)
        return math.tanh(log_odds / 2.0)

    lo, hi = 1e-12, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if abs(stance_at(mid)) > abs(target):
            hi = mid
        else:
            lo = mid
    scale = min((lo, hi), key=lambda c: abs(stance_at(c) - target))
    candidate = lo
    for _ in range(4096):
        candidate = math.nextafter(candidate, math.inf)
        error = abs(stance_at(candidate) - target)
        if error < abs(stance_at(scale) - target):
            scale = candidate
        if error == 0.0:
            break
    return scale


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    anchoring=st.sampled_from((0.2, 0.5, 0.8, 1.3)),
    target=st.sampled_from((0.0, 0.3, -0.5, 0.75, -0.75, 0.9)),
    n=st.integers(1, 14),
    rng_seed=st.integers(0, 1000),
)
@example(anchoring=0.2, target=0.0, n=8, rng_seed=2)  # the scan moves the scale off both endpoints
@example(anchoring=0.2, target=0.0, n=12, rng_seed=1)
def test_seed_scale_equals_the_full_scan(anchoring, target, n, rng_seed):
    factors = []
    rescale = MemoryStore.rescale

    def spy(store, records, factor):
        seeds = [(r.polarity, r.strength) for r in records if r.active]
        factors.append((factor, scan_to_the_end(seeds, anchoring, target)))
        rescale(store, records, factor)

    agent = make_agent("seeded", DEFAULT_TOPIC, UAProfile(uptake=0.4, anchoring=anchoring), theta=0.8, theta_self=0.5)
    with mock.patch.object(MemoryStore, "rescale", spy):
        seed_agent(agent, CORPUS, n, target, rng=random.Random(rng_seed))
    for factor, reference in factors:
        assert factor.hex() == reference.hex()


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    strengths=st.one_of(st.none(), st.lists(st.floats(0.0, 1.0), min_size=14, max_size=14)),
    anchoring=st.floats(0.0, 3.0),
    target=st.floats(-1.0, 1.0),
    n=st.integers(1, 14),
    rng_seed=st.integers(0, 1000),
)
# The default debate's pro seedings of trial 0 (rng seed 7), whose scan
# ran all 4096 steps: anchoring 0.2 in open/open and open/stubborn, 0.8
# in stubborn/open and stubborn/stubborn.
@example(strengths=None, anchoring=0.2, target=0.75, n=14, rng_seed=7)
@example(strengths=None, anchoring=0.8, target=0.75, n=14, rng_seed=7)
def test_single_polarity_seed_scale_equals_the_full_scan(strengths, anchoring, target, n, rng_seed):
    """With one polarity the stance is monotone in the scale, so seed_agent
    skips the ulp scan; its factor must still be the full scan's, bitwise.
    strengths=None keeps the bundled corpus's hints."""
    polarity = -1 if target < 0 else 1
    corpus = [c for c in CORPUS if c.polarity == polarity]
    if strengths is not None:
        corpus = [CandidateArgument(c.claim, c.polarity, c.role, s) for c, s in zip(corpus, strengths)]
    factors = []
    rescale = MemoryStore.rescale

    def spy(store, records, factor):
        seeds = [(r.polarity, r.strength) for r in records if r.active]
        assert {p for p, _ in seeds} == {polarity}
        factors.append((factor, scan_to_the_end(seeds, anchoring, target)))
        rescale(store, records, factor)

    agent = make_agent("seeded", DEFAULT_TOPIC, UAProfile(uptake=0.4, anchoring=anchoring), theta=0.8, theta_self=0.5)
    with mock.patch.object(MemoryStore, "rescale", spy):
        seed_agent(agent, corpus, n, target, rng=random.Random(rng_seed))
    for factor, reference in factors:
        assert factor.hex() == reference.hex()


def test_belief_drops_a_record_archived_from_outside():
    profile = UAProfile(uptake=0.7, anchoring=0.5)
    agent = make_agent("prop", DEFAULT_TOPIC, profile, theta=0.8, theta_self=0.5)
    text = "\n".join(f"CLAIM +0.{4 + i}: {_claim(i, 0, 0)}" for i in range(len(PHRASES)))
    process_message(agent, Message(text=text, author_role="opponent", order=agent.next_order()))
    agent.memory.archive(agent.memory.records[1], archived_by=None)  # archived outside the engine
    process_message(agent, Message(text=f"CLAIM -0.3: {_claim(0, 0, 1)}", author_role="opponent", order=agent.next_order()))
    active = [r for r in agent.memory.records if r.active]
    assert len(active) == len(PHRASES)
    assert agent.belief.log_odds == compute_log_odds(active, profile)


# A header whose seeds weigh anchoring 1.0.
HEADER = TraceEvent(
    0,
    "header",
    {"schema": TRACE_SCHEMA, "agent_id": "a", "topic": "t", "uptake": 0.5, "anchoring": 1.0,
     "theta": 0.8, "theta_self": 0.5, "k": 5},
)


def stored(seq: int, record_id: int, active: bool, strength: float, matched_id=None) -> TraceEvent:
    """The stored event of a new seed record as the engine writes it under
    HEADER."""
    payload = {"id": record_id, "claim": f"claim {record_id}", "polarity": 1, "strength": strength, "role": "seed"}
    return TraceEvent(
        seq,
        "stored",
        {**payload, "active": active, "contribution": math.log1p(strength), "similarity": None if matched_id is None else 1.0,
         "matched_id": matched_id, "archived_id": None},
    )


def updated(seq: int, l_before: float, l_after: float) -> TraceEvent:
    payload = {"L_before": l_before, "L_after": l_after, "S_before": math.tanh(l_before / 2.0)}
    return TraceEvent(seq, "updated", {**payload, "S_after": math.tanh(l_after / 2.0)})


def test_verify_resums_after_a_rescale():
    """A rescaled event multiplies its active ids' strengths by its factor,
    and the next update folds the active set again in id order, from the
    contributions derived at the new strengths."""
    seeds = [stored(1, 0, True, 0.5), stored(2, 1, True, 0.25), stored(3, 2, False, 0.2, matched_id=0)]
    # "claim 1" sits at similarity 0.8 to "claim 0", which theta 0.8 would archive; this claim shares no trigram with it.
    seeds[1].payload.update(claim="a second seed", similarity=0.0, matched_id=0)
    seeds[2].payload["claim"] = "claim 0"  # a repeat, at similarity 1.0, loses to the stronger record 0
    factor = 0.75
    rescaled = TraceEvent(4, "rescaled", {"factor": factor, "ids": [0, 1, 2]})
    first = math.log1p(0.5) + math.log1p(0.25)
    again = math.log1p(0.5 * factor) + math.log1p(0.25 * factor)
    assert verify_trace([HEADER, *seeds, rescaled, updated(5, 0.0, again)]).log_odds == again
    with pytest.raises(TraceVerificationError, match=f"event 5: L_after {first} != replayed {again}"):
        verify_trace([HEADER, *seeds, rescaled, updated(5, 0.0, first)])
    store = store_from_trace([HEADER, *seeds, rescaled])
    assert [r.strength for r in store] == [0.5 * factor, 0.25 * factor, 0.2 * factor]


def test_verify_resums_after_non_increasing_id():
    """A rescaled event names an id below the last one stored, so the
    next update folds the active set again in id order: the replayed L is
    that left_sum bitwise, not the sum with record 0's new contribution
    last, which differs from it in the last bit."""
    seeds = [stored(1, 0, True, 0.2), stored(2, 1, True, 0.6), stored(3, 2, True, 0.2)]
    before = math.log1p(0.2) + math.log1p(0.6) + math.log1p(0.2)
    factor = 0.5
    contributions = [math.log1p(0.2 * factor), math.log1p(0.6), math.log1p(0.2)]
    in_id_order = contributions[0] + contributions[1] + contributions[2]
    rescaled_last = contributions[1] + contributions[2] + contributions[0]
    assert in_id_order != rescaled_last
    rescaled = TraceEvent(5, "rescaled", {"factor": factor, "ids": [0]})
    for recorded in (in_id_order, rescaled_last):  # one ulp apart, within TOLERANCE
        events = [HEADER, *seeds, updated(4, 0.0, before), rescaled, updated(6, before, recorded)]
        assert verify_trace(events).log_odds == in_id_order


def test_verify_rejects_a_record_stored_again_as_inactive():
    """A stored event holds the next id: a record stored again, as the old
    format's seed rescale did, fails in both readers, and a trace needs
    its header first."""
    events = [HEADER, stored(1, 0, True, 0.5), updated(2, 0.0, math.log1p(0.5)), stored(3, 0, False, 0.5)]
    assert verify_trace(events[:3]).log_odds == math.log1p(0.5)
    message = "event 3: stored id 0 is not the next id 1"
    with pytest.raises(TraceVerificationError, match=message):
        verify_trace(events)
    with pytest.raises(TraceVerificationError, match=message):
        store_from_trace(events)
    with pytest.raises(TraceVerificationError, match="event 1: the trace has no header: its first event is stored"):
        verify_trace(events[1:])


def test_embeddings_are_shared_and_read_only():
    store = MemoryStore()
    first = store.embed("  Parks Matter ")
    second = store.embed("parks matter")
    assert first is second
    assert np.array_equal(first, trigram_counts("parks matter"))
    assert not first.flags.writeable
    assert MemoryStore().embed("parks matter") is not first  # one cache per store


grid_values = st.lists(st.floats(0.0, 1.5), min_size=1, max_size=3, unique=True).map(lambda v: tuple(sorted(v)))
replay_cases = st.lists(
    st.tuples(
        st.integers(1, 6),
        st.one_of(st.integers(1, 6), st.floats(-1.0, 1.0)),  # final Likert (some stable cases) or stance
        st.integers(0, 5),
        st.lists(
            st.tuples(
                st.integers(0, len(PHRASES) - 1), st.integers(0, 3), st.sampled_from((-1, 1)), st.floats(0.0, 1.0)
            ),
            max_size=4,
        ),
    ),
    min_size=10,  # so that training sets reach numpy's 8-way summation
    max_size=36,
)


def make_replay_case(index, initial, final, group, items):
    return ReplayCase(
        participant=f"p{index}",
        group=f"g{group}",
        topic="t",
        initial_likert=initial,
        final_likert=final if isinstance(final, int) else None,
        final_stance=final if isinstance(final, float) else None,
        evidence=[EvidenceItem(_claim(phrase, 0, suffix), sign, strength) for phrase, suffix, sign, strength in items],
    )


def assert_cells_are_replays(result, replays, finals, fold_ids):
    """The grid of `result` against 1-D arrays of replay_case predictions
    (`replays`: (u, a) -> predictions for the cases it was fitted on)."""

    def rmse(preds, idx):
        return float(np.sqrt(np.mean((preds[idx] - finals[idx]) ** 2)))

    assert result.surface == {cell: rmse(preds, np.arange(len(finals))) for cell, preds in replays.items()}
    assert [f.fold for f in result.fold_results] == sorted(set(fold_ids.tolist()))
    for fold in result.fold_results:
        test = np.flatnonzero(fold_ids == fold.fold)
        train = np.flatnonzero(fold_ids != fold.fold)
        if len(train) == 0:
            train = test  # a lone fold trains on its own cases
        best = None
        for cell, preds in replays.items():  # u outer, a inner: ties keep the first cell
            if best is None or rmse(preds, train) < best[0] - 1e-15:
                best = (rmse(preds, train), cell)
        assert (fold.train_rmse, (fold.u, fold.a)) == best
        selected = replays[(fold.u, fold.a)]
        assert fold.heldout_rmse == rmse(selected, test)
        assert result.heldout_predictions[test].tolist() == selected[test].tolist()


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rows=replay_cases,
    u_values=grid_values,
    a_values=grid_values,
    fold_draw=st.lists(st.integers(0, 2), min_size=36, max_size=36),
    folds=st.integers(1, 4),
)
def test_calibration_cells_equal_replay_case(rows, u_values, a_values, fold_draw, folds):
    cases = [make_replay_case(i, *row) for i, row in enumerate(rows)]
    grid = CalibrationGrid(u_values=u_values, a_values=a_values)
    finals = np.array([c.observed_final for c in cases])
    replays = {
        (u, a): np.array([replay_case(c, UAProfile(u, a)) for c in cases]) for u in u_values for a in a_values
    }

    fold_ids = np.array(fold_draw[: len(cases)])
    assert_cells_are_replays(calibrate(cases, grid, fold_ids.tolist()), replays, finals, fold_ids)

    report = build_replay_report(cases, grid, folds=folds)
    report_folds = np.array(report.fold_ids)
    assert_cells_are_replays(report.pooled, replays, finals, report_folds)
    for label, result in report.group_calibrations.items():
        idx = np.flatnonzero(np.array(report.subgroup_of_case) == label)
        subset = {cell: preds[idx] for cell, preds in replays.items()}
        assert_cells_are_replays(result, subset, finals[idx], report_folds[idx])


BIN_EDGES = [0.2 * j - 1.0 for j in range(1, 10)]


# Products of an anchoring and a logit stay finite, so no element is NaN.
kernel_inputs = st.lists(
    st.tuples(st.floats(-1e6, 1e6), st.floats(-1e300, 1e300), st.floats(-1e300, 1e300)), min_size=1, max_size=24
)


@settings(max_examples=300, deadline=None)
@given(cells=kernel_inputs)
@example(cells=[(0.0, -0.0, -0.0), (-0.0, 0.0, -0.0), (1.0, -0.0, 0.0), (0.5, 0.0, -0.0)])  # signed zeros
@example(cells=[(1.0, 80.0, 0.0), (1.5, -1e300, 3.0), (0.2, 37.0, 1e300), (1e6, 1e300, -1e300)])  # saturating
@example(cells=[(0.3, 5e-324, -5e-324)])  # a one-element array of subnormals
def test_prediction_kernel_equals_scalar_readout(cells):
    """The array kernel equals stance_from_log_odds(a * l0 + ev) bitwise
    at every element: elementwise, as a (a x case) slab, and in the
    one-element form replay_case passes (a scalar anchoring and evidence
    term around a one-element prior-logit array)."""
    anchoring, prior_logits, evidence = (np.array(column, dtype=np.float64) for column in zip(*cells))
    expected = np.array([stance_from_log_odds(a * l0 + ev) for a, l0, ev in cells])
    assert replay_mod._predict(anchoring, prior_logits, evidence).tobytes() == expected.tobytes()
    slab = replay_mod._predict(anchoring[:, np.newaxis], prior_logits, evidence)
    rows = [[stance_from_log_odds(a * l0 + ev) for _, l0, ev in cells] for a, _, _ in cells]
    assert slab.tobytes() == np.array(rows).tobytes()
    for a, l0, ev in cells:
        one = replay_mod._predict(a, np.array([l0]), ev)
        assert one.shape == (1,) and one.tobytes() == np.array([stance_from_log_odds(a * l0 + ev)]).tobytes()


@pytest.mark.parametrize("j", range(1, 10))
def test_stance_bin_edge_falls_in_its_upper_bin(j):
    edge = BIN_EDGES[j - 1]
    assert stance_to_instruction(edge) == (j, BIN_LABELS[j])
    assert stance_to_instruction(math.nextafter(edge, -math.inf)) == (j - 1, BIN_LABELS[j - 1])


@given(stance=st.one_of(st.floats(-1.0, 1.0), st.floats(allow_nan=True, allow_infinity=True)))
@example(stance=-1.0)  # bin 0
@example(stance=1.0)  # bin 9
@example(stance=math.nextafter(-1.0, -math.inf))
@example(stance=math.nextafter(1.0, math.inf))
@example(stance=math.nan)
def test_stance_to_instruction_bins(stance):
    """Bin j holds [0.2j - 1, 0.2j - 0.8), +1 falls in bin 9, and anything
    outside [-1, 1], NaN included, is rejected."""
    if -1.0 <= stance <= 1.0:
        index = sum(edge <= stance for edge in BIN_EDGES)
        assert stance_to_instruction(stance) == (index, BIN_LABELS[index])
    else:
        with pytest.raises(ContractError):
            stance_to_instruction(stance)
