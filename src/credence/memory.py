"""Structured argument store with an active/archived partition.

Insertion order is the iteration order, a record's id is the number of
records stored before it, and archived records stay in the store for
audit.  Retrieval allocates context slots in proportion to the active
pro/con composition, never by stance.

The store alone owns its active set: ``insert`` indexes an active record
at once, and ``archive`` is the one way a stored record leaves it (a
stored record's ``active`` flag cannot be set directly).
The index makes deduplication and retrieval cost in proportion to the
active set rather than to everything ever stored (the belief update
reads no store: the agent's core.Fold holds L's terms):

- per polarity, two row sets, every active record and only the agent's
  own (self and seed) for the self pool, each with its records' cache
  entries; a set that has held at most 8 rows is searched by one dot
  product per row, and a larger one holds the counts as the float32 rows
  of blocks of 1024 rows (2 MiB), with each row's squared norm, and is
  searched by one np.dot (a matvec) per block; the best row of at
  most 20 rows is picked in one Python pass, of more by numpy's argmax
  (see _RowSet); ties keep the lowest id; each set remembers its answer
  to each query entry until its next add or remove, so a repeated query
  on an unchanged set takes no product;
- per polarity, the active records in (-strength, id) order, which
  ``rescale`` sorts again, so top-k retrieval is a slice;
- one entry per distinct claim text seen by this store, made once: the
  read-only float32 trigram counts (which ``embed`` returns and a judged
  record holds as its ``embedding``) and their squared norm |c|^2 as a
  float64 taken from the integer counts.

A search decides its precision once: the query q multiplies every row of
a set in float32 while |q|^2 * square_max < 2**48, square_max being the
largest |c|^2 among the set's rows.  A row's dot product with the query
is a sum of products of non-negative integers, so each product and
partial sum is at most q.c, which by Cauchy-Schwarz is at most |q||c| <
2**24: an integer exact in float32, in any summation order, fused
multiply-adds included.  At or above the bound the query goes in as
float64 and every product runs in float64.  Either way the dot products
are the exact integers and each similarity has the bits of
``cosine_similarity``.  (Counts stay exact in float32 for any text under
2**24 characters.)

A search's answer depends only on the set's live rows and the query, not
on any strength, so a set's memo of answers is emptied by add and remove
alone, and ``rescale`` leaves it valid.  An own turn quotes the strongest
records, and its self claims mostly tie with them and are stored
inactive, so the next turn searches the same claims against the same own
rows.  In the benchmark workloads (seed 1) the memo answered 78% of the
searches of dialogue_echo, 70% of dialogue_fresh, 66% of simulate and
none of replay, whose cases each have a new store and repeat no claim.
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
# A float32 dot product of counts is exact while |q|^2 |c|^2 is below this.
_FLOAT32_EXACT = 2.0**48


class _RowSet:
    """Active records, each with its text's cache entry (counts, |c|^2),
    and the largest of those squares (square_max).

    Rows are unordered: removing a record moves the last row into its
    place, and removing the row that held square_max finds it again.  A
    set of up to PAIRWISE_MAX rows allocates nothing more; the row after
    that writes every row's counts into a float32 block of BLOCK rows,
    and their squares into a float64 array of BLOCK, and each later BLOCK
    rows get a block of their own.  Row r is row r % BLOCK of block
    r // BLOCK, and no block is ever copied or replaced: blocks stay once
    made, whatever the set's size.  A block's pages that no row has
    written cost no resident memory while transparent huge pages are on
    madvise, since numpy asks for them only from 4 MiB.

    A search without a block takes one dot product per row, by the
    query's ndarray.dot method; with blocks, one np.dot per block over its
    live rows.  Up to SELECT_MAX rows the best row is picked in one Python
    pass over the similarities; above it, by numpy's argmax.

    memo maps a query cache entry, by identity, to the answer nearest
    returned for it; add and remove empty it.  It holds the entry, so no
    other object takes the entry's id while it is remembered.
    """

    # Per-search costs, measured in one process (2-vCPU VM, warm, best of
    # 30 rounds of 50 queries against claims of seed-corpus words).  A
    # pairwise search takes about 1.3 us plus 0.55 us a row (1 row 1.9 us,
    # 4 rows 3.7, 8 rows 5.4; np.dot instead of the ndarray.dot method
    # adds its dispatch, about 0.4 us a row), a block search about 3.2 to
    # 3.6 us up to 8 rows.  But a block is made at the row after
    # PAIRWISE_MAX, an allocation and a copy of every row, and most sets of
    # a replay case (3 to 9 claims over two polarities) live only for a
    # few searches: over the 2,000 cases of the replay benchmark, in one
    # process (best of 15 rounds), judging took 105 us a case with 8 here,
    # 114 with 4, and 109 with the search before it picked rows in Python.
    # The simulate benchmark gains more with 4 (see ROADMAP item 10), but
    # not enough to pay for replay's loss.
    PAIRWISE_MAX = 8
    # Picking the best row in one Python pass (tolist, max, index, count)
    # against numpy's multiply, sqrt, divide and argmax, per search: 9 rows
    # 3.7 against 5.5 us, 16 rows 5.0 against 5.8, 20 rows 5.4 against
    # 5.5, 24 rows 5.9 against 5.8, 32 rows 6.3 against 6.2.
    SELECT_MAX = 20
    # 1024 rows of float32 counts are 2 MiB, half the size from which numpy
    # asks for transparent huge pages: a single 2048-row matrix got them,
    # for about 1 MiB more peak RSS on a 500-round dialogue of fresh
    # claims.  On two BLAS threads a 1024-row matvec takes about as long
    # as a 512-row one, and a third of a 2048-row one; but each matvec call
    # has a fixed cost, so a set of 1025 to 2047 rows searches in up to
    # about twice the time one matrix of its rows would take.
    BLOCK = 1024

    def __init__(self):
        self.records: list[ArgumentRecord] = []
        self.texts: list[tuple] = []
        self.row_of: dict[int, int] = {}
        self.blocks: list[tuple[np.ndarray, np.ndarray]] = []  # (float32 counts, float64 squares)
        self.square_max = 0.0
        self.memo: dict[int, tuple] = {}  # id(query) -> (query, answer) since the last add or remove

    def add(self, record: ArgumentRecord, text: tuple) -> None:
        """Add an active record with its text's cache entry, (counts,
        |counts|^2)."""
        self.memo.clear()
        n = len(self.records)
        if text[1] > self.square_max:
            self.square_max = text[1]
        self.records.append(record)
        self.texts.append(text)
        self.row_of[record.id] = n
        if self.blocks:
            self._put(n, text)
        elif n == self.PAIRWISE_MAX:
            for row, entry in enumerate(self.texts):
                self._put(row, entry)

    def _put(self, row: int, text: tuple) -> None:
        """Write a cache entry's counts and square into row, after the
        rows before it: the first row of a block makes the block."""
        index, offset = divmod(row, self.BLOCK)
        if index == len(self.blocks):
            self.blocks.append((np.empty((self.BLOCK, EMBED_DIM), dtype=np.float32), np.empty(self.BLOCK)))
        counts, squares = self.blocks[index]
        counts[offset], squares[offset] = text

    def remove(self, record: ArgumentRecord) -> None:
        self.memo.clear()
        row = self.row_of.pop(record.id)
        last = len(self.records) - 1
        square = self.texts[row][1]
        if row != last:
            moved = self.records[last]
            self.records[row] = moved
            self.texts[row] = self.texts[last]
            self.row_of[moved.id] = row
            if self.blocks:
                self._put(row, self.texts[row])
        self.records.pop()
        self.texts.pop()
        if square == self.square_max:
            self.square_max = max((square for _, square in self.texts), default=0.0)

    def _products(self, counts: np.ndarray) -> np.ndarray:
        """The query counts' dot product with every row, by one matvec per
        block over its live rows."""
        n = len(self.records)
        if n <= self.BLOCK:
            return np.dot(self.blocks[0][0][:n], counts)
        starts = range(0, n, self.BLOCK)
        return np.concatenate([np.dot(block[: n - start], counts) for start, (block, _) in zip(starts, self.blocks)])

    def _squares(self) -> np.ndarray:
        """Every row's |c|^2, from the blocks."""
        n = len(self.records)
        if n <= self.BLOCK:
            return self.blocks[0][1][:n]
        starts = range(0, n, self.BLOCK)
        return np.concatenate([squares[: n - start] for start, (_, squares) in zip(starts, self.blocks)])

    def nearest(self, query: tuple) -> Optional[tuple[ArgumentRecord, float]]:
        """The record whose counts are the most cosine-similar to the
        query's, the lowest id among equals, and that similarity; None
        when the set is empty.  The query is a cache entry, (counts,
        |counts|^2).

        Every dot product of counts is exact (see the module docstring):
        all in float32 while the query's square times square_max is below
        2**48, else all in float64, pair by pair without a block, else by
        one matvec per block.  Each similarity is dot / sqrt(square *
        row_square), and math's and numpy's multiply, sqrt and divide
        round as cosine_similarity's do, so it equals that bitwise.  Rows
        are not in id order, so a tie goes to the lower id: the first row
        of the best similarity is the answer unless more rows hold it, and
        then the lowest id among them is, in the Python pass and after
        the argmax alike.

        A query entry searched before, with no add or remove since, gets
        the remembered answer, without a product: the answer is a function
        of the live rows and the query alone, and a cache entry never
        changes.
        """
        n = len(self.records)
        if not n:
            return None
        remembered = self.memo.get(id(query))
        if remembered is not None:
            return remembered[1]
        answer = self._search(query)
        self.memo[id(query)] = query, answer
        return answer

    def _search(self, query: tuple) -> tuple[ArgumentRecord, float]:
        """nearest's answer, computed: at least one row."""
        n = len(self.records)
        counts, square = query
        if square * self.square_max >= _FLOAT32_EXACT:
            counts = counts.astype(np.float64)
        if not self.blocks:
            similarities = [float(counts.dot(row)) / math.sqrt(square * row_square) for row, row_square in self.texts]
        elif n <= self.SELECT_MAX:
            dots = self._products(counts).tolist()
            similarities = [dot / math.sqrt(square * row_square) for dot, (_, row_square) in zip(dots, self.texts)]
        else:
            similarities = np.multiply(self._squares(), square)
            np.sqrt(similarities, out=similarities)
            np.divide(self._products(counts), similarities, out=similarities)
            row = int(similarities.argmax())
            best = similarities.item(row)
            if np.count_nonzero(similarities == best) > 1:
                row = min(np.flatnonzero(similarities == best), key=lambda r: self.records[r].id)
            return self.records[row], best
        best = max(similarities)
        row = similarities.index(best)
        if similarities.count(best) > 1:
            row = min((r for r, similarity in enumerate(similarities) if similarity == best), key=lambda r: self.records[r].id)
        return self.records[row], best


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
    _by_polarity: dict = field(
        default_factory=lambda: defaultdict(_PolarityIndex), init=False, repr=False, compare=False
    )
    _texts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def insert(self, record: ArgumentRecord) -> int:
        """Store record under the next id, the number of records stored
        before it; an active one is indexed with its claim's cache entry."""
        if record.id is not None:
            raise ContractError(f"record already has id {record.id}")
        record.id = len(self.records)
        self.records.append(record)
        if record.active:
            self._by_polarity[record.polarity].add(record, self._text(record.claim))
        return record.id

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
            text = self._texts[key] = (counts.astype(np.float32), float(np.dot(counts, counts)))
            text[0].flags.writeable = False
        return text

    def archive(self, record: ArgumentRecord, archived_by: Optional[int]) -> None:
        """Move an active record of this store to the archived partition;
        ContractError, and no change, for any other record."""
        if not (record.active and record.id is not None and record.id < len(self) and self.records[record.id] is record):
            raise ContractError(f"record {record.id} is not an active record of this store")
        self._by_polarity[record.polarity].remove(record)
        record._active = False  # behind the property, which refuses a stored record
        record.archived_by = archived_by

    def rescale(self, records, factor: float) -> None:
        """Multiply each given record's strength, active or archived, by
        factor; ContractError, and no change, unless every record is
        stored in this store and every product is in [0, 1]."""
        records = list(records)
        for record in records:
            if not (record.id is not None and record.id < len(self) and self.records[record.id] is record):
                raise ContractError(f"record {record.id} is not a record of this store")
        pairs = [(record, record.strength * factor) for record in records]
        for record, strength in pairs:
            check_strength(strength, f"rescaled strength of record {record.id}")
        for record, strength in pairs:
            record.strength = strength
        for index in self._by_polarity.values():
            index.ranked.sort(key=_rank)

    def active_records(self) -> list[ArgumentRecord]:
        """The active records in id order, by a scan of every stored one."""
        return [record for record in self.records if record.active]

    def nearest(self, record: ArgumentRecord, own_only: bool = False) -> Optional[tuple[ArgumentRecord, float]]:
        """The active record of record's polarity (only the agent's own,
        self and seed, if own_only) most cosine-similar to record's claim,
        by the trigram counts of its cache entry, with the lowest id among
        equals, and that similarity; None when there is none."""
        index = self._by_polarity[record.polarity]
        return (index.own if own_only else index.every).nearest(self._text(record.claim))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


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
    pro = store._by_polarity[1].ranked
    con = store._by_polarity[-1].ranked
    total = len(pro) + len(con)
    if total == 0:
        # Even split; the extra slot for odd k goes to the affirmative side.
        k_plus = (k + 1) // 2
        return RetrievalContext(records=[], k_plus=k_plus, k_minus=k - k_plus)
    k_plus = _round_half_up(k * len(pro) / total)
    k_minus = k - k_plus
    chosen = pro[:k_plus] + con[:k_minus]
    return RetrievalContext(records=chosen, k_plus=k_plus, k_minus=k_minus)

