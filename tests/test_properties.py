"""Property tests for the indexed active set, the calibration grid, the
replay prediction kernel and the stance-to-instruction bins.

The store answers deduplication queries from an index (a matvec
shortlist, then exact cosine_similarity), the engine and the trace
verifier update L incrementally, and calibration evaluates its grid from
per-case terms.  Each property compares that fast path with the
brute-force rule it replaces, bitwise.
"""

import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from credence import memory as memory_mod
from credence import replay as replay_mod
from credence.config import DEFAULT_TOPIC, bundled_text
from credence.core import Role, UAProfile, compute_log_odds, stance_from_log_odds
from credence.engine import (
    BIN_LABELS,
    TraceEvent,
    compose_response,
    process_message,
    stance_to_instruction,
    verify_trace,
)
from credence.exceptions import ContractError, TraceVerificationError
from credence.extraction import Message
from credence.judgement import ArgumentRecord, cosine_similarity, embed_claim, ingest_record
from credence.memory import MemoryStore, dump_jsonl, load_jsonl, retrieve
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
    cosine_similarity(embed_claim(_claim(p, 0, 0)), embed_claim(_claim(p, s, 0)))
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
    """The pre-index rule: loop cosine_similarity over the active pool in
    insertion order; the first strictly greater similarity wins."""
    best, best_sim = None, -1.0
    for record in store.records:
        if not record.active or record.polarity != new.polarity:
            continue
        if new.role == Role.SELF and record.role not in (Role.SELF, Role.SEED):
            continue
        sim = cosine_similarity(new.embedding, record.embedding)
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
            if store.records:
                store.records[op[1] % len(store.records)].active = False  # archived from outside
            continue
        _, phrase, swap, suffix, polarity, role, strength = op
        record = make_record(_claim(phrase, swap, suffix), polarity, strength, role)
        ingest_and_check(store, record, theta, theta_self)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=operations, theta=thetas, theta_self=thetas, min_rows=st.sampled_from((1, memory_mod._MATVEC_MIN_ROWS)))
def test_indexed_resolve_matches_brute_force(ops, theta, theta_self, min_rows):
    # min_rows=1 sends every pool through the matvec shortlist.
    with mock.patch.object(memory_mod, "_MATVEC_MIN_ROWS", min_rows):
        store = MemoryStore()
        apply(store, ops, theta, theta_self)
        assert store.active_records() == [r for r in store.records if r.active]


retrieve_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.sampled_from((-1, 1)), st.sampled_from((0.0, 0.25, 0.5, 1.0))),
        st.tuples(st.just("archive"), st.integers(0, 10**6)),
        st.tuples(st.just("flip"), st.integers(0, 10**6)),
        st.tuples(st.just("rescale"), st.integers(0, 10**6), st.sampled_from((0.5, 0.999, 1.0))),
    ),
    max_size=60,
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=retrieve_ops, k=st.integers(1, 12))
def test_retrieve_matches_brute_force_sort(ops, k):
    """After every insert, archive, direct flip or rescale, retrieval
    from the index pools equals a (-strength, id) sort of each
    polarity's active records."""
    store = MemoryStore()
    for op in ops:
        if op[0] == "insert":
            store.insert(make_record(f"claim {len(store)}", op[1], op[2], Role.OPPONENT))
        elif store.records:
            record = store.records[op[1] % len(store.records)]
            if op[0] == "archive":
                store.archive(record, archived_by=None)
            elif op[0] == "flip":
                record.active = False
            else:
                store.rescale([record], op[2])
        context = retrieve(store, k)
        ranked = {
            polarity: [r.id for r in sorted(store, key=lambda r: (-r.strength, r.id)) if r.active and r.polarity == polarity]
            for polarity in (1, -1)
        }
        assert context.k_plus + context.k_minus == k
        assert [r.id for r in context.records] == ranked[1][: context.k_plus] + ranked[-1][: context.k_minus]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(before=operations, after=operations, theta=thetas, theta_self=thetas)
def test_reloaded_store_resolves_identically(tmp_path_factory, before, after, theta, theta_self):
    with mock.patch.object(memory_mod, "_MATVEC_MIN_ROWS", 1):
        store = MemoryStore()
        apply(store, before, theta, theta_self)
        path = tmp_path_factory.mktemp("memory") / "memory.jsonl"
        dump_jsonl(store, path)
        loaded = load_jsonl(path)
        for op in after:
            if op[0] == "flip":
                continue
            _, phrase, swap, suffix, polarity, role, strength = op
            claim = _claim(phrase, swap, suffix)
            original = ingest_and_check(store, make_record(claim, polarity, strength, role), theta, theta_self)
            reloaded = ingest_and_check(loaded, make_record(claim, polarity, strength, role), theta, theta_self)
            assert (original.kept_new, original.matched_id) == (reloaded.kept_new, reloaded.matched_id)
            assert repr(original.similarity) == repr(reloaded.similarity)
        assert flags(loaded) == flags(store)


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
    """L from the last stored contribution of each id still active at the
    end of the trace, summed in id order from zero."""
    contributions, active = {}, {}
    for event in events:
        if event.kind == "stored":
            contributions[event.payload["id"]] = event.payload["contribution"]
            active[event.payload["id"]] = event.payload["active"]
        elif event.kind == "resolved" and event.payload.get("archived_id") is not None:
            active[event.payload["archived_id"]] = False
    total = 0.0
    for record_id in sorted(contributions):
        if active.get(record_id):
            total += contributions[record_id]
    return total


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
    agent = make_agent("prop", DEFAULT_TOPIC, profile, theta=0.8, theta_self=0.5)
    for index, (lines, reply) in enumerate(rounds):
        for seed_round, target, rng_seed in seedings:
            if seed_round == index:
                # A second seeding rescales seeds already folded into L.
                seed_agent(agent, CORPUS, 6, target, rng=random.Random(rng_seed))
                assert agent.belief.log_odds == compute_log_odds(agent.memory.active_records(), profile)
        text = "\n".join(
            f"CLAIM {sign}{strength}: {_claim(phrase, swap, suffix)}"
            for phrase, swap, suffix, sign, strength in lines
        )
        process_message(agent, Message(text=text, author_role="opponent", order=agent.next_order()))
        assert agent.belief.log_odds == compute_log_odds(agent.memory.active_records(), profile)
        if reply:
            message, _ = compose_response(agent)
            process_message(agent, message)
            assert agent.belief.log_odds == compute_log_odds(agent.memory.active_records(), profile)

    replayed = verify_trace(agent.trace)
    assert replayed.log_odds == agent.belief.log_odds
    assert replayed.log_odds == resummed_log_odds(agent.trace)


def scan_to_the_end(seeds, anchoring: float, target: float) -> float:
    """The seed scale as chosen before the scan stopped early: bisection,
    then all 4096 nextafter steps unless a new candidate is exact."""

    def stance_at(scale):
        return math.tanh(sum(p * math.log1p(scale * s * anchoring) for p, s in seeds) / 2.0)

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


def test_belief_drops_a_record_archived_from_outside():
    profile = UAProfile(uptake=0.7, anchoring=0.5)
    agent = make_agent("prop", DEFAULT_TOPIC, profile, theta=0.8, theta_self=0.5)
    text = "\n".join(f"CLAIM +0.{4 + i}: {_claim(i, 0, 0)}" for i in range(len(PHRASES)))
    process_message(agent, Message(text=text, author_role="opponent", order=agent.next_order()))
    agent.memory.records[1].active = False  # archived without MemoryStore.archive
    process_message(agent, Message(text=f"CLAIM -0.3: {_claim(0, 0, 1)}", author_role="opponent", order=agent.next_order()))
    active = [r for r in agent.memory.records if r.active]
    assert len(active) == len(PHRASES)
    assert agent.belief.log_odds == compute_log_odds(active, profile)


def test_verify_resums_after_non_increasing_id():
    def trace(l_after):
        events = [
            TraceEvent(0, "stored", {"id": 2, "active": True, "contribution": 1e16}),
            TraceEvent(1, "stored", {"id": 3, "active": True, "contribution": -1e16}),
            TraceEvent(2, "stored", {"id": 1, "active": True, "contribution": 1.0}),
        ]
        stance = math.tanh(l_after / 2.0)
        events.append(
            TraceEvent(3, "updated", {"L_before": 0.0, "L_after": l_after, "S_before": 0.0, "S_after": stance})
        )
        return events

    # In id order the sum is (1 + 1e16) - 1e16 = 0; in stored order it is 1.
    assert verify_trace(trace(0.0)).log_odds == 0.0
    with pytest.raises(TraceVerificationError):
        verify_trace(trace(1.0))


def test_embeddings_are_shared_and_read_only():
    store = MemoryStore()
    first = store.embed("  Parks Matter ")
    second = store.embed("parks matter")
    assert first is second
    assert np.array_equal(first, embed_claim("parks matter"))
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
