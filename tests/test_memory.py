import math

import pytest

from credence.core import Role
from credence.exceptions import ContractError
from credence.judgement import ArgumentRecord, embed_claim
from credence.memory import MemoryStore, retrieve


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
    store.archive(drop, archived_by=None)
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


def state(store):
    return [(r.active, r.archived_by) for r in store], [r.id for r in store.active_records()]


def test_archive_takes_only_an_active_record_of_its_own_store():
    store, other = MemoryStore(), MemoryStore()
    record = make_record("a")
    store.insert(record)
    other.insert(make_record("a"))
    before = state(store), state(other)
    with pytest.raises(ContractError, match="record 0 is not an active record of this store"):
        other.archive(record, archived_by=1)
    with pytest.raises(ContractError, match="record None is not an active record of this store"):
        store.archive(make_record("b"), archived_by=1)
    assert (state(store), state(other)) == before

    store.archive(record, archived_by=1)
    before = state(store)
    with pytest.raises(ContractError, match="record 0 is not an active record of this store"):
        store.archive(record, archived_by=7)
    assert state(store) == before and record.archived_by == 1


def test_rescale_takes_only_records_of_its_own_store():
    """Another store's record or an unstored one, alone or beside a record
    of the store, raises and changes no strength or rank order of either
    store; an archived record of the store is rescaled."""
    store, other = MemoryStore(), MemoryStore()
    mine, theirs = make_record("a", strength=0.8), make_record("b", strength=0.4)
    store.insert(mine)
    store.insert(make_record("c", strength=0.6))
    other.insert(theirs)

    def strengths():
        ranked = [[r.id for r in s._by_polarity[p].ranked] for s in (store, other) for p in (1, -1)]
        return [r.strength for r in [*store, *other]], ranked

    before = strengths()
    for records, name in (([theirs], 0), ([mine, theirs], 0), ([mine, make_record("d")], None)):
        with pytest.raises(ContractError, match=f"record {name} is not a record of this store"):
            store.rescale(records, 0.5)
        assert strengths() == before

    store.archive(mine, archived_by=None)
    store.rescale([mine], 0.5)
    assert mine.strength == 0.4


@pytest.mark.parametrize("value", [False, True])
def test_a_stored_records_active_flag_is_set_only_by_archive(value):
    store = MemoryStore()
    record = make_record("a")
    store.insert(record)
    before = state(store)
    with pytest.raises(ContractError, match="record 0 is stored: only MemoryStore.archive changes its active flag"):
        record.active = value
    assert state(store) == before and record.active


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
    store.archive(strong, archived_by=None)
    context = retrieve(store, 1)
    assert [r.claim for r in context.records] == ["pro b"]


@pytest.mark.parametrize("factor", [float("nan"), -0.5, 1.5], ids=["nan", "negative", "product-above-1"])
def test_rescale_rejects_a_product_outside_0_1_and_changes_nothing(factor):
    store = MemoryStore()
    records = [make_record(f"claim {i}", strength=strength) for i, strength in enumerate((0.2, 0.5, 0.8))]
    for record in records:
        store.insert(record)
    store.archive(records[1], archived_by=None)  # archived records are rescaled too
    with pytest.raises(ContractError, match="rescaled strength of record .* is not a finite number in"):
        store.rescale(records, factor)
    assert [r.strength for r in records] == [0.2, 0.5, 0.8]
    # The factor itself may exceed 1, as a seed scale a few ulps above the
    # bisection's lower end can.
    store.rescale(records, math.nextafter(1.0, 2.0))
    assert records[2].strength == 0.8 * math.nextafter(1.0, 2.0)


