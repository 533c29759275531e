"""Structured argument store with an active/archived partition.

Insertion order is the iteration order, ids come from a monotone
counter, and archived records stay in the store for audit. Retrieval
allocates context slots in proportion to the active pro/con composition,
never by stance.

The store alone owns its active set: ``insert`` indexes an active record
(outside a batch at once, see below), and ``archive`` is the one way a
stored record leaves it (a stored record's ``active`` flag cannot be set
directly).
The index makes deduplication, retrieval and the belief update cost in
proportion to the active set rather than to everything ever stored:

- per polarity, two row sets, every active record and only the agent's
  own (self and seed) for the self pool, each with its records' trigram
  counts as the float32 rows of one matrix and each row's squared norm,
  so one exact matvec finds the nearest record; the first add makes room
  for 8 rows, the matrix doubles when full after that, and a query looks
  for the lowest id only when several rows tie for the best similarity;
- per polarity, the active records in (-strength, id) order, which
  ``rescale`` sorts again, so top-k retrieval is a slice;
- the active records in id order;
- one entry per distinct claim text seen by this store, made once: the
  read-only float32 trigram counts (which ``embed`` returns and a judged
  record holds as its ``embedding``) and their squared norm |c|^2 as a
  float64 taken from the integer counts.

Claims are judged in batches (``batch``): a message, a replay case, a
seeding; a single claim is a batch of one.  A batch's records are
stored one at a time, in order, but none joins the row sets while the
batch is open, so a batch record is searched for among the rows that
existed before the batch and among the batch's own earlier records
still active in the same pool (see _Batch).  The rows of a closed
batch's records still active join the index, in id order, when it is
next read (a search, an archive, a rescale, a retrieval, an insert or
the next batch); a store that is never read again, as a replay case's,
never builds them.

A query q multiplies in float32 while |q|^2 * square_max < 2**48,
square_max being the largest |c|^2 among a row set's rows.  A row's dot
product with the query is a sum of products of non-negative integers, so
each product and partial sum is at most q.c, which by Cauchy-Schwarz is
at most |q||c| < 2**24: an integer exact in float32, in any summation
order, fused multiply-adds included.  Above the bound the query goes in
as float64 and the matvec runs in float64.  By the same bound a batch
takes the dot product of two of its claims in float32 while
|c_i|^2 |c_j|^2 < 2**48, and its matrix of their counts is float32 while
its largest |c|^2 is below 2**24; else float64.  Either way the dot
products are the exact integers and each similarity has the bits of
``cosine_similarity``.  (Counts stay exact in float32 for any text under
2**24 characters.)
"""

from __future__ import annotations

import bisect
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import Role, check_strength
from .exceptions import ContractError
from .judgement import EMBED_DIM, ArgumentRecord, _bincount

_OWN_ROLES = (Role.SELF, Role.SEED)
# A float32 dot product of counts is exact while |q|^2 * square_max is below this.
_FLOAT32_EXACT = 2.0**48


class _RowSet:
    """Active records with their trigram counts as the float32 rows of one
    matrix, each row's squared norm (float64, from the cache entry), and
    the largest of those squares (square_max).

    Rows are unordered: removing a record moves the last row into its
    place, and removing the row that held square_max finds it again.  The
    first add makes room for FIRST_ROWS rows, so an empty set allocates
    nothing and a small one allocates once; after that the matrix
    doubles when full.
    """

    FIRST_ROWS = 8
    # Shared by every empty set; a set replaces them on its first add and
    # never writes them.
    _NO_COUNTS = np.empty((0, EMBED_DIM), dtype=np.float32)
    _NO_SQUARES = np.empty(0)

    def __init__(self):
        self.records: list[ArgumentRecord] = []
        self.row_of: dict[int, int] = {}
        self.counts = self._NO_COUNTS
        self.squares = self._NO_SQUARES
        self.square_max = 0.0

    def add(self, record: ArgumentRecord, text: tuple) -> None:
        """Add an active record with its text's cache entry, (counts,
        |counts|^2)."""
        counts, square = text
        n = len(self.records)
        if n == len(self.squares):
            capacity = max(self.FIRST_ROWS, 2 * n)
            grown, grown_squares = np.empty((capacity, EMBED_DIM), dtype=np.float32), np.empty(capacity)
            grown[:n], grown_squares[:n] = self.counts, self.squares
            self.counts, self.squares = grown, grown_squares
        self.counts[n] = counts
        self.squares[n] = square
        if square > self.square_max:
            self.square_max = square
        self.records.append(record)
        self.row_of[record.id] = n

    def remove(self, record: ArgumentRecord) -> None:
        row = self.row_of.pop(record.id)
        last = len(self.records) - 1
        square = self.squares[row]
        if row != last:
            moved = self.records[last]
            self.records[row] = moved
            self.row_of[moved.id] = row
            self.counts[row] = self.counts[last]
            self.squares[row] = self.squares[last]
        self.records.pop()
        if square == self.square_max:
            self.square_max = float(self.squares[:last].max(initial=0.0))

    def nearest(self, query: tuple) -> Optional[tuple[ArgumentRecord, float]]:
        """The record whose counts are the most cosine-similar to the
        query's, the lowest id among equals, and that similarity; None
        when the set is empty.  The query is a cache entry, (counts,
        |counts|^2).

        Every dot product of counts is exact: in float32 while the query's
        square times square_max is below 2**48, else in float64 (see the
        module docstring).  numpy's elementwise multiply, sqrt and divide
        round as cosine_similarity's scalar ones do, so each similarity
        equals cosine_similarity bitwise.  Rows are not in id order, so
        when more than one row holds the best similarity the lowest id
        among them is looked up; otherwise the argmax row is the answer.
        """
        n = len(self.records)
        if not n:
            return None
        counts, square = query
        if square * self.square_max >= _FLOAT32_EXACT:
            counts = counts.astype(np.float64)
        similarities = (self.counts[:n] @ counts) / np.sqrt(self.squares[:n] * square)
        row = int(similarities.argmax())
        best = similarities[row]
        if np.count_nonzero(similarities == best) > 1:
            row = min(np.flatnonzero(similarities == best), key=lambda r: self.records[r].id)
        return self.records[row], float(best)


def _rank(record: ArgumentRecord) -> tuple:
    # Strength ties break toward the older (lower-id) record.
    return (-record.strength, record.id)


class _PolarityIndex:
    """The active records of one polarity: every one and the agent's own
    (self and seed) as two row sets, and every one in rank order, the
    strongest first.  The rank order holds while strengths change only
    through MemoryStore.rescale, which sorts it again."""

    def __init__(self):
        self.every = _RowSet()
        self.own = _RowSet()
        self.ranked: list[ArgumentRecord] = []

    def add(self, record: ArgumentRecord, text: tuple) -> None:
        self.every.add(record, text)
        if record.role in _OWN_ROLES:
            self.own.add(record, text)
        bisect.insort(self.ranked, record, key=_rank)

    def remove(self, record: ArgumentRecord) -> None:
        self.every.remove(record)
        if record.role in _OWN_ROLES:
            self.own.remove(record)
        del self.ranked[bisect.bisect_left(self.ranked, _rank(record), key=_rank)]


@dataclass
class MemoryStore:
    records: list[ArgumentRecord] = field(default_factory=list, init=False)  # filled by insert only
    insertion_counter: int = field(default=0, init=False)
    # Bumped by archive and rescale, the only ways a running sum
    # over the active set goes stale.
    revision: int = field(default=0, init=False, compare=False)
    _active: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _by_polarity: dict = field(
        default_factory=lambda: defaultdict(_PolarityIndex), init=False, repr=False, compare=False
    )
    _texts: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _batch: Optional["_Batch"] = field(default=None, init=False, repr=False, compare=False)
    # The closed batches' records and texts whose rows have not joined the index.
    _joining: list = field(default_factory=list, init=False, repr=False, compare=False)

    def insert(self, record: ArgumentRecord, batch: Optional["_Batch"] = None) -> int:
        """Store record under the next id, and index an active one.  While
        a batch is open only the batch inserts, its next record, passing
        itself as batch (_Batch.insert); that record's row joins the index
        after the batch has closed."""
        if batch is not self._batch:
            raise ContractError("while a batch of the store is open, only that batch inserts")
        if record.id is not None:
            raise ContractError(f"record already has id {record.id}")
        record.id = self.insertion_counter
        self.insertion_counter += 1
        self.records.append(record)
        if record.active:
            self._active[record.id] = record
        if batch is None and record.active:
            self._index(record.polarity).add(record, self._text(record.claim))
        return record.id

    def batch(self, claims) -> "_Batch":
        """A batch of the given claims, to be judged in order while it is
        open as a context manager (see _Batch)."""
        return _Batch(self, claims)

    def embed(self, claim: str) -> np.ndarray:
        """trigram_counts as float32, computed once per distinct text in
        this store and shared read-only by every record of that text."""
        return self._text(claim)[0]

    def _text(self, claim: str) -> tuple:
        """The cache entry of claim's text, made on its first use: (float32
        counts, read-only; |counts|^2 from the integer counts).  A plain
        tuple: with a NamedTuple, judging the cases of a 2000-case replay
        took about 2% longer."""
        key = claim.strip().lower()
        text = self._texts.get(key)
        if text is None:
            counts = _bincount(key)
            text = self._texts[key] = (counts.astype(np.float32), float(counts @ counts))
            text[0].flags.writeable = False
        return text

    def archive(self, record: ArgumentRecord, archived_by: Optional[int]) -> None:
        """Move an active record of this store to the archived partition;
        ContractError, and no change, for any other record.  A record of
        the open batch has no row yet: it leaves the batch's pools."""
        if self._active.get(record.id) is not record:
            raise ContractError(f"record {record.id} is not an active record of this store")
        del self._active[record.id]
        if self._batch is None or record.id < self._batch.first_id:
            self._index(record.polarity).remove(record)
        else:
            self._batch.drop(record)
        record._active = False  # behind the property, which refuses a stored record
        record.archived_by = archived_by
        self.revision += 1

    def rescale(self, records, factor: float) -> None:
        """Multiply each given record's strength, active or archived, by
        factor; ContractError, and no change, unless every record is
        stored in this store and every product is in [0, 1]."""
        records = list(records)
        for record in records:
            if not (record.id is not None and record.id < len(self.records) and self.records[record.id] is record):
                raise ContractError(f"record {record.id} is not a record of this store")
        pairs = [(record, record.strength * factor) for record in records]
        for record, strength in pairs:
            check_strength(strength, f"rescaled strength of record {record.id}")
        for record, strength in pairs:
            record.strength = strength
        for index in self._indexes().values():
            index.ranked.sort(key=_rank)
        self.revision += 1

    def _index(self, polarity: int) -> _PolarityIndex:
        """The index of one polarity, holding the rows of every closed
        batch."""
        return self._indexes()[polarity]

    def _indexes(self) -> dict:
        """The index by polarity, after the rows of every closed batch's
        records still active have joined it, in id order."""
        if self._joining:
            joining, self._joining = self._joining, []
            for records, texts in joining:
                for record, text in zip(records, texts):
                    if record._active:
                        self._by_polarity[record.polarity].add(record, text)
        return self._by_polarity

    def active_records(self) -> list[ArgumentRecord]:
        return list(self._active.values())

    def nearest(
        self, record: ArgumentRecord, own_only: bool = False, text: Optional[tuple] = None
    ) -> Optional[tuple[ArgumentRecord, float]]:
        """The active record of record's polarity (only the agent's own,
        self and seed, if own_only) most cosine-similar to record's claim,
        by trigram counts, with the lowest id among equals, and that
        similarity; None when there is none.  text is the claim's cache
        entry, looked up here when not given.  While a batch is open only
        the batch searches (_Batch.nearest), since its records have no
        rows yet."""
        if self._batch is not None:
            raise ContractError("the store has an open batch: only the batch searches until it closes")
        index = self._index(record.polarity)
        return (index.own if own_only else index.every).nearest(text or self._text(record.claim))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def retrieve(self, k: int) -> "RetrievalContext":
        return retrieve(self, k)


class _Batch:
    """Claims judged together against one store, in order, while the
    batch is open as a context manager (a store has one open batch at
    most): their texts' cache entries and the batch's records, which only
    the batch inserts, one per claim in the claims' order.

    The batch keeps the positions of its records still active in pools,
    in id order: per polarity, one of every record and one of the agent's
    own (self and seed).  A pool of up to PAIRWISE_MAX records is searched
    one dot product at a time; a larger one with one matvec over the
    matrix of the batch's counts, stacked when first needed.  On closing,
    whether the batch ended or failed part way, the store takes its
    records and their texts, and its index the rows of those still
    active when it is next read.
    """

    # A pair costs one numpy call and a matrix search about six: on
    # batches of 6 to 40 claims of one pool, the matrix search took less
    # time only for pools above about this size.
    PAIRWISE_MAX = 8

    def __init__(self, store: MemoryStore, claims):
        self.store = store
        self.texts = [store._text(claim) for claim in claims]
        self.records: list[ArgumentRecord] = []
        self.pools: dict[tuple, list[int]] = {}
        self.counts = self.squares = None  # stacked for the first matrix search

    def __enter__(self) -> "_Batch":
        store = self.store
        if store._batch is not None:
            raise ContractError("the store already has an open batch")
        self.first_id = store.insertion_counter
        # The rows that existed before the batch; None when there are none.
        self.index = store._indexes() if store._active else None
        store._batch = self
        return self

    def __exit__(self, *exc) -> None:
        # The records and their texts, not the batch: the batch refers to
        # the store, and a cycle would outlive the store until a full
        # garbage collection.
        self.store._batch = None
        self.store._joining.append((self.records, self.texts))

    def insert(self, record: ArgumentRecord) -> int:
        """Store record, the batch's next, and put an active one in its
        pools."""
        position = len(self.records)
        record_id = self.store.insert(record, self)
        self.records.append(record)
        if record._active:
            self.pools.setdefault((record.polarity, False), []).append(position)
            if record.role in _OWN_ROLES:
                self.pools.setdefault((record.polarity, True), []).append(position)
        return record_id

    def drop(self, record: ArgumentRecord) -> None:
        """Take an archived record of the batch out of its pools."""
        position = record.id - self.first_id
        self.pools[record.polarity, False].remove(position)
        if record.role in _OWN_ROLES:
            self.pools[record.polarity, True].remove(position)

    def nearest(self, record: ArgumentRecord, own_only: bool) -> Optional[tuple[ArgumentRecord, float]]:
        """MemoryStore.nearest for the batch's next record, over the rows
        that existed before the batch and the batch's earlier records still
        active in the same pool (record's polarity; only self and seed if
        own_only).  Those come after every row in id order, so a tie keeps
        the earlier match, as it does within a pool.  Each dot product is
        exact (see the module docstring), and the similarity divides it by
        sqrt(|c_i|^2 |c_j|^2), each step correctly rounded, as in
        cosine_similarity."""
        i = len(self.records)
        text = self.texts[i]
        found = None
        if self.index is not None:
            index = self.index[record.polarity]
            found = (index.own if own_only else index.every).nearest(text)
        pool = self.pools.get((record.polarity, own_only))
        if not pool:
            return found
        counts, square = text
        if len(pool) <= self.PAIRWISE_MAX:
            for j in pool:
                other, other_square = self.texts[j]
                product = square * other_square
                if product >= _FLOAT32_EXACT:
                    other = other.astype(np.float64)
                similarity = float(counts @ other) / math.sqrt(product)
                if found is None or similarity > found[1]:
                    found = self.records[j], similarity
            return found
        if self.counts is None:
            self.counts = np.stack([counts for counts, _ in self.texts])
            self.squares = np.array([square for _, square in self.texts])
            if self.squares.max() ** 2 >= _FLOAT32_EXACT:
                self.counts = self.counts.astype(np.float64)
        similarities = ((self.counts[:i] @ self.counts[i]) / np.sqrt(self.squares[:i] * square))[pool]
        best = int(similarities.argmax())
        if found is None or similarities[best] > found[1]:
            found = self.records[pool[best]], float(similarities[best])
        return found


@dataclass
class RetrievalContext:
    records: list[ArgumentRecord]
    k_plus: int
    k_minus: int


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def retrieve(store: MemoryStore, k: int) -> RetrievalContext:
    """Composition-proportional retrieval of the strongest active records."""
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    if store._batch is not None:
        raise ContractError("the store has an open batch: nothing retrieves until it closes")
    pro = store._index(1).ranked
    con = store._index(-1).ranked
    total = len(pro) + len(con)
    if total == 0:
        # Even split; the extra slot for odd k goes to the affirmative side.
        k_plus = (k + 1) // 2
        return RetrievalContext(records=[], k_plus=k_plus, k_minus=k - k_plus)
    k_plus = _round_half_up(k * len(pro) / total)
    k_minus = k - k_plus
    chosen = pro[:k_plus] + con[:k_minus]
    return RetrievalContext(records=chosen, k_plus=k_plus, k_minus=k_minus)

