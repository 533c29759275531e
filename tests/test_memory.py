import json
import math
import random
import re

import pytest

from credence.core import Role
from credence.exceptions import ContractError
from credence.judgement import ArgumentRecord, embed_claim
from credence.memory import MemoryStore, dump_jsonl, load_jsonl, retrieve


def make_record(claim, polarity=1, strength=0.5, role=Role.OPPONENT):
    return ArgumentRecord(
        claim=claim, polarity=polarity, strength=strength, role=role, embedding=embed_claim(claim)
    )


def test_insert_assigns_monotone_ids():
    store = MemoryStore()
    ids = [store.insert(make_record(f"claim {i}")) for i in range(5)]
    assert ids == [0, 1, 2, 3, 4]


def test_insert_rejects_preassigned_id():
    store = MemoryStore()
    record = make_record("claim")
    store.insert(record)
    with pytest.raises(ContractError):
        store.insert(record)


def test_active_partition():
    store = MemoryStore()
    keep = make_record("a")
    drop = make_record("b")
    store.insert(keep)
    store.insert(drop)
    drop.active = False
    assert store.active_records() == [keep]
    assert len(store) == 2


def test_archived_record_never_reenters():
    store = MemoryStore()
    record = make_record("a")
    store.insert(record)
    store.archive(record, archived_by=None)
    with pytest.raises(ContractError):
        record.active = True
    assert not record.active and store.active_records() == []


def test_retrieve_rejects_nonpositive_k():
    with pytest.raises(ContractError):
        retrieve(MemoryStore(), 0)


def test_retrieve_empty_memory_even_split():
    context = retrieve(MemoryStore(), 5)
    assert (context.k_plus, context.k_minus) == (3, 2)
    assert context.records == []


def test_retrieve_proportional_allocation():
    store = MemoryStore()
    for i in range(6):
        store.insert(make_record(f"pro {i}", polarity=1, strength=0.1 * i))
    for i in range(2):
        store.insert(make_record(f"con {i}", polarity=-1, strength=0.5))
    context = retrieve(store, 4)
    # 4 * 6/8 = 3 affirmative slots.
    assert (context.k_plus, context.k_minus) == (3, 1)
    assert sum(r.polarity == 1 for r in context.records) == 3


def test_retrieve_strongest_first_with_id_tiebreak():
    store = MemoryStore()
    older = make_record("pro a", strength=0.5)
    newer = make_record("pro b", strength=0.5)
    top = make_record("pro c", strength=0.9)
    for record in (older, newer, top):
        store.insert(record)
    context = retrieve(store, 2)
    assert [r.id for r in context.records] == [top.id, older.id]


def test_retrieve_ignores_archived():
    store = MemoryStore()
    strong = make_record("pro a", strength=0.9)
    store.insert(strong)
    store.insert(make_record("pro b", strength=0.2))
    strong.active = False
    context = retrieve(store, 1)
    assert [r.claim for r in context.records] == ["pro b"]


@pytest.mark.parametrize("factor", [float("nan"), -0.5, 1.5], ids=["nan", "negative", "product-above-1"])
def test_rescale_rejects_a_product_outside_0_1_and_changes_nothing(factor):
    store = MemoryStore()
    records = [make_record(f"claim {i}", strength=strength) for i, strength in enumerate((0.2, 0.5, 0.8))]
    for record in records:
        store.insert(record)
    records[1].active = False  # archived records are rescaled too
    revision = store.revision
    with pytest.raises(ContractError, match="rescaled strength of record .* is not a finite number in"):
        store.rescale(records, factor)
    assert [r.strength for r in records] == [0.2, 0.5, 0.8]
    assert store.revision == revision
    # The factor itself may exceed 1, as a seed scale a few ulps above the
    # bisection's lower end can.
    store.rescale(records, math.nextafter(1.0, 2.0))
    assert records[2].strength == 0.8 * math.nextafter(1.0, 2.0)


def test_jsonl_roundtrip(tmp_path):
    rng = random.Random(3)
    store = MemoryStore()
    for i in range(20):
        record = make_record(
            f"claim {i}",
            polarity=rng.choice([-1, 1]),
            strength=rng.random(),
            role=rng.choice(list(Role)),
        )
        store.insert(record)
        if rng.random() < 0.3:
            record.active = False
            record.archived_by = rng.choice([None, *range(i)])  # never the record's own id
    path = tmp_path / "memory.jsonl"
    dump_jsonl(store, path)
    loaded = load_jsonl(path)
    assert len(loaded) == len(store)
    for original, copy in zip(store, loaded):
        assert (original.id, original.claim, original.polarity, original.strength) == (
            copy.id, copy.claim, copy.polarity, copy.strength
        )
        assert (original.role, original.active, original.archived_by) == (
            copy.role, copy.active, copy.archived_by
        )
    assert loaded.insertion_counter == store.insertion_counter


def test_load_rejects_out_of_order_id(tmp_path):
    store = MemoryStore()
    for i in range(3):
        store.insert(make_record(f"claim {i}"))
    path = tmp_path / "memory.jsonl"
    dump_jsonl(store, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], lines[2], lines[1]]) + "\n")
    with pytest.raises(ContractError, match="record id 2 is not the next id 1"):
        load_jsonl(path)


@pytest.mark.parametrize("archived_by", [1, True, "0", 2.5], ids=["own-id", "bool", "str", "float"])
def test_load_rejects_a_bad_archived_by(tmp_path, archived_by):
    """An archived row's archived_by is null or the id of another record."""
    store = MemoryStore()
    for i in range(3):
        store.insert(make_record(f"claim {i}"))
    store.archive(store.records[1], archived_by=archived_by)
    path = tmp_path / "memory.jsonl"
    dump_jsonl(store, path)
    message = rf"memory\.jsonl:2: record 1 archived_by {re.escape(repr(archived_by))} is neither null"
    with pytest.raises(ContractError, match=message):
        load_jsonl(path)
    store.records[1].archived_by = 2
    dump_jsonl(store, path)
    assert load_jsonl(path).records[1].archived_by == 2


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("polarity", 0, "polarity 0 not in"),
        ("polarity", "+1", "polarity +1 not in"),
        ("strength", 2.5, "strength hint 2.5 is not a finite number in"),
        ("strength", float("nan"), "strength hint nan is not a finite number in"),
        ("strength", "0.5", "strength hint '0.5' is not a finite number in"),
        ("strength", None, "record strength is missing"),
        ("role", "judge", "'judge' is not a valid Role"),
        ("claim", "  ", "candidate claim is empty"),
        ("active", "no", "record active flag 'no' is not a boolean"),
        ("polarity", True, "polarity True not in"),
        ("archived_by", 7, "record 1 archived_by 7 is neither null"),
    ],
    ids=[
        "polarity-0", "polarity-str", "strength-2.5", "strength-nan", "strength-str", "strength-null", "role", "claim",
        "active-str", "polarity-bool", "archived_by-on-active",
    ],
)
def test_load_rejects_a_bad_row_naming_file_and_line(tmp_path, field, value, message):
    store = MemoryStore()
    for i in range(3):
        store.insert(make_record(f"claim {i}"))
    path = tmp_path / "memory.jsonl"
    dump_jsonl(store, path)
    lines = path.read_text().splitlines()
    row = json.loads(lines[1])
    row[field] = value
    lines[1] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ContractError, match=rf"memory\.jsonl:2: {re.escape(message)}"):
        load_jsonl(path)
