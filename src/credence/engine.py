"""Per-message update loop and the audit trace.

For every incoming message the engine extracts candidates, scores them,
runs conflict resolution, stores the records, brings the belief state up
to date with the active set, and (for its own turns) composes a response
from a stance instruction plus retrieved memory.  Every sub-step emits a
trace event after the header that opens the trace; the trace alone
reconstructs the final belief state.
"""

from __future__ import annotations

import bisect
import codecs
import contextlib
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .core import (
    BeliefState,
    Role,
    UAProfile,
    check_strength,
    compute_log_odds,
    left_sum,
    number_in,
    record_contribution,
    stance_from_log_odds,
    update_incremental,
)
from .exceptions import ConfigError, ContractError, TraceVerificationError
from .extraction import ExtractorPort, Message
from .judgement import ArgumentRecord, CandidateArgument, ScorerPort, judge
from .memory import MemoryStore, RetrievalContext

BIN_LABELS = (
    "argue strongly against the proposition",
    "argue firmly against the proposition",
    "argue against the proposition",
    "lean against the proposition",
    "voice mild reservations about the proposition",
    "voice mild support for the proposition",
    "lean toward the proposition",
    "argue for the proposition",
    "argue firmly for the proposition",
    "argue strongly for the proposition",
)


def template_response(stance_instruction: str, retrieved: RetrievalContext) -> str:
    """The deterministic, model-free response: the stance instruction
    followed by the retrieved claims in the scripted-claim grammar, so a
    listening agent can re-extract them.  Strengths are printed with
    enough digits to round-trip."""
    lines = [stance_instruction]
    for record in retrieved.records:
        sign = "+" if record.polarity > 0 else "-"
        lines.append(f"CLAIM {sign}{record.strength:.17f}: {record.claim}")
    return "\n".join(lines)


def check_ranges(settings, counts: tuple) -> None:
    """Reject a theta or theta_self that is not a number in [0, 1] and a
    named count that is not an integer >= 1 (a boolean is none):
    EngineConfig's check, and the run configs'."""
    for name in ("theta", "theta_self"):
        if not number_in(getattr(settings, name), 0.0, 1.0):
            raise ContractError(f"{name} must be in [0, 1], got {getattr(settings, name)!r}")
    for name in counts:
        value = getattr(settings, name)
        if not (number_in(value, 1, math.inf) or isinstance(value, bool)):
            raise ContractError(f"{name} must be >= 1, got {value!r}")
        if type(value) is not int:
            raise ContractError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass
class EngineConfig:
    extractor: ExtractorPort
    scorer: Optional[ScorerPort]  # None: every candidate must carry a strength hint
    theta: float = 0.80
    theta_self: float = 0.50
    k: int = 5

    def __post_init__(self):
        check_ranges(self, ("k",))


# One encoder, built here once, writes every trace line, as
# json.dumps(row, ensure_ascii=False) would byte for byte; json.dumps and
# JSONEncoder.encode build a new encoder per call.  It skips the
# circular-reference check: the engine builds every payload, and none
# refers to itself.  One decoder reads every line.
_line_settings = json.JSONEncoder(ensure_ascii=False, check_circular=False)
if json.encoder.c_make_encoder is not None:
    _iterencode = json.encoder.c_make_encoder(
        None,  # no circular-reference markers
        _line_settings.default,
        json.encoder.encode_basestring,
        None,  # no indent
        _line_settings.key_separator,
        _line_settings.item_separator,
        _line_settings.sort_keys,
        _line_settings.skipkeys,
        _line_settings.allow_nan,
    )

    def _encode_line(row: dict) -> str:
        return "".join(_iterencode(row, 0))

else:  # json without its C accelerator
    _encode_line = _line_settings.encode
_raw_decode = json.JSONDecoder().raw_decode

# How far a recorded contribution, L or S may sit from the value the trace
# replays to.
TOLERANCE = 1e-12
# The trace format's version, which the header event holds.
TRACE_SCHEMA = 2


@dataclass(slots=True)
class TraceEvent:
    seq: int
    kind: str
    payload: dict

    def to_json(self) -> str:
        return _encode_line({"seq": self.seq, "kind": self.kind, "payload": self.payload})


@dataclass
class AgentState:
    agent_id: str
    topic: str
    profile: UAProfile
    config: EngineConfig
    memory: MemoryStore = field(default_factory=MemoryStore)
    belief: BeliefState = field(default_factory=BeliefState.zero)
    trace: list = field(default_factory=list)
    last_order: int = -1
    # (store, records folded, store revision) as of the last belief update.
    folded: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        """Open the trace with its header: what a reader needs to re-derive
        every contribution and to know the thresholds the run used."""
        profile, config = self.profile, self.config
        self.emit(
            "header",
            schema=TRACE_SCHEMA,
            agent_id=self.agent_id,
            topic=self.topic,
            uptake=profile.uptake,
            anchoring=profile.anchoring,
            theta=config.theta,
            theta_self=config.theta_self,
            k=config.k,
        )

    def next_order(self) -> int:
        return self.last_order + 1

    def emit(self, kind: str, **payload) -> TraceEvent:
        event = TraceEvent(seq=len(self.trace), kind=kind, payload=payload)
        self.trace.append(event)
        return event


# Left-closed bin edges 0.2*j - 1; comparing against these doubles keeps
# the edges in their upper bin, which division by 0.2 would not.
_BIN_EDGES = tuple(0.2 * j - 1.0 for j in range(1, 10))


def stance_to_instruction(stance: float) -> tuple[int, str]:
    """Left-closed 10-bin stance map over [-1, 1]; S=+1 clamps to bin 9."""
    if not -1.0 <= stance <= 1.0:
        raise ContractError(f"stance {stance} outside [-1, 1]")
    bin_index = bisect.bisect_right(_BIN_EDGES, stance)
    return bin_index, BIN_LABELS[bin_index]


def ingest_candidate(agent: AgentState, candidate: CandidateArgument) -> ArgumentRecord:
    """Judge and store one candidate; emits its one stored event: the
    record, its contribution, and the deduplication outcome (the nearest
    active record's similarity and id, and the record it archived)."""
    config = agent.config
    record, outcome = judge(agent.memory, candidate, agent.topic, config.scorer, config.theta, config.theta_self)
    agent.emit(
        "stored",
        id=record.id,
        claim=record.claim,
        polarity=record.polarity,
        strength=record.strength,
        role=record.role.value,
        active=record.active,
        contribution=record_contribution(record, agent.profile),
        similarity=outcome.similarity,
        matched_id=outcome.matched_id,
        archived_id=outcome.superseded.id if outcome.superseded is not None else None,
    )
    return record


def refresh_belief(agent: AgentState) -> TraceEvent:
    """Bring L up to date with the active set, with before/after in the trace.

    While the store's revision is unchanged since the last update (no
    record has been archived and no stored strength has changed),
    the contributions of the records stored since then are added in id
    order (update_incremental), which equals the batch fold bitwise.
    Otherwise the whole active set is folded again.
    """
    before = agent.belief
    memory = agent.memory
    folded = agent.folded
    if folded is not None and folded[0] is memory and folded[2] == memory.revision:
        state = before
        for record in memory.records[folded[1] :]:
            if record.active:
                state = update_incremental(state, record, agent.profile)
        agent.belief = state
    else:
        agent.belief = BeliefState.from_log_odds(compute_log_odds(memory.active_records(), agent.profile))
    agent.folded = (memory, len(memory.records), memory.revision)
    return agent.emit(
        "updated",
        L_before=before.log_odds,
        L_after=agent.belief.log_odds,
        S_before=before.stance,
        S_after=agent.belief.stance,
    )


def process_message(agent: AgentState, incoming: Message) -> list[TraceEvent]:
    """The per-message loop: extract, judge, store, update."""
    if incoming.order <= agent.last_order:
        raise ContractError(
            f"message order {incoming.order} does not exceed last processed order {agent.last_order}"
        )
    start = len(agent.trace)

    warnings: list[str] = []
    candidates = agent.config.extractor.extract(agent.topic, incoming, on_warning=warnings.append)
    for message in warnings:
        agent.emit("warning", message=message)
    agent.emit("extracted", count=len(candidates))

    for candidate in candidates:
        ingest_candidate(agent, candidate)

    refresh_belief(agent)
    agent.last_order = incoming.order
    return agent.trace[start:]


def compose_response(agent: AgentState) -> tuple[Message, list[TraceEvent]]:
    """Retrieve context, build the stance instruction, fill the template."""
    start = len(agent.trace)
    retrieved = agent.memory.retrieve(agent.config.k)
    agent.emit(
        "retrieved",
        k_plus=retrieved.k_plus,
        k_minus=retrieved.k_minus,
        ids=[r.id for r in retrieved.records],
    )
    bin_index, label = stance_to_instruction(agent.belief.stance)
    text = template_response(label, retrieved)
    agent.emit("composed", bin=bin_index, label=label)
    message = Message(text=text, author_role="self", order=agent.next_order())
    return message, agent.trace[start:]


def take_turn(agent: AgentState) -> str:
    """Compose a message and feed it back through the agent's own
    extract-judge path, so self-arguments enter memory."""
    message, _ = compose_response(agent)
    process_message(agent, message)
    return message.text


# ---------------------------------------------------------------------------
# Trace serialisation and verification


def write_trace(path, events: list[TraceEvent]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(event.to_json() + "\n")


def split_lines(chunks):
    """The lines of a binary file's chunks (as iterating the file yields
    them), split where text mode splits them: at LF, CRLF or a lone CR.
    A line may keep its LF; callers strip each line."""
    for chunk in chunks:
        yield from chunk.splitlines() if b"\r" in chunk else (chunk,)


def _trace_events(path):
    """Yield a trace file's events one line at a time.

    Lines end at LF, CRLF or a lone CR, as in text mode.  Each line is
    decoded on its own as UTF-8, so bytes that are not UTF-8 fail with the
    number of their line; a byte-order mark is skipped at the start of the
    file only.  Each non-blank line, stripped, must hold exactly one JSON
    value (else it fails with json.loads's message): an object with an
    integer seq, a string kind and an object payload; else
    TraceVerificationError.
    """
    with open(path, "rb") as handle:
        first = handle.readline().removeprefix(codecs.BOM_UTF8)
        for line_number, raw in enumerate(split_lines(itertools.chain((first,), handle)), 1):
            try:
                line = raw.decode().strip()
                if not line:
                    continue
                try:
                    row, end = _raw_decode(line)
                except ValueError:
                    end = -1
                if end != len(line):
                    row = json.loads(line)  # fails, with its own message (extra data, a byte-order mark)
            except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
                raise TraceVerificationError(f"unreadable trace line {line_number}: {exc}") from exc
            if type(row) is dict:
                seq, kind, payload = row.get("seq"), row.get("kind"), row.get("payload")
                if type(seq) is int and type(kind) is str and type(payload) is dict:
                    yield TraceEvent(seq, kind, payload)
                    continue
            raise TraceVerificationError(
                f"trace line {line_number} is not an object with an integer seq, a string kind and an object payload"
            )


def read_trace(path) -> list[TraceEvent]:
    """Every event of a trace file, checked line by line as
    verify_trace_file reads them."""
    return list(_trace_events(path))


def _field(event: TraceEvent, key: str) -> float:
    """A number field of the payload that a trace reader reads, as a float
    (a boolean is not a number, nor is an integer outside float range);
    else TraceVerificationError."""
    value = event.payload.get(key)
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:
            pass
    raise TraceVerificationError(f"event {event.seq}: {event.kind} {key} {value!r} is not a number", seq=event.seq)


def _check_header(event: TraceEvent) -> None:
    """The header's schema is TRACE_SCHEMA, its agent id and topic are
    strings, its (u, a) make a UAProfile, its thresholds are in [0, 1] and
    its k is an integer >= 1; else ContractError or ConfigError."""
    payload = event.payload
    if payload.get("schema") != TRACE_SCHEMA:
        raise ContractError(f"schema {payload.get('schema')!r} is not {TRACE_SCHEMA}")
    if not (isinstance(payload.get("agent_id"), str) and isinstance(payload.get("topic"), str)):
        raise ContractError("needs a string agent_id and topic")
    UAProfile(_field(event, "uptake"), _field(event, "anchoring"))
    for name in ("theta", "theta_self"):
        if not 0.0 <= _field(event, name) <= 1.0:
            raise ContractError(f"{name} {payload[name]!r} is not in [0, 1]")
    if type(payload.get("k")) is not int or payload["k"] < 1:
        raise ContractError(f"k {payload.get('k')!r} is not an integer >= 1")


def _checked(events, active_ids):
    """Yield each event once it keeps the rules both trace readers apply;
    else raise TraceVerificationError naming it.  active_ids holds the
    reader's active records by id, which the reader brings up to date
    before the next event.

    The first event is the header (see _check_header), and no other
    event is one.  Seqs increase.  A stored event holds the next id and a
    record that passes a candidate argument's checks, with a string claim,
    a strength and a boolean active flag.  Its matched_id is null or an
    active record, and its archived_id null or that same record; a record
    stored inactive archives nothing and has a matched_id.  A
    rescaled event holds a finite factor >= 0 and increasing ids of
    stored records."""
    seq = None  # the previous event's
    next_id = 0
    for event in events:
        kind, payload = event.kind, event.payload
        if seq is None and kind != "header":
            raise TraceVerificationError(
                f"event {event.seq}: the trace has no header: its first event is {kind}", seq=event.seq
            )
        if seq is not None and event.seq <= seq:
            raise TraceVerificationError(f"event {event.seq}: {kind} seq does not increase", seq=event.seq)
        try:
            if kind == "stored":
                record_id, claim, strength, active, matched_id, archived_id = map(
                    payload.get, ("id", "claim", "strength", "active", "matched_id", "archived_id")
                )
                if type(record_id) is not int or record_id != next_id:
                    raise ContractError(f"id {record_id!r} is not the next id {next_id}")
                if not isinstance(claim, str) or strength is None or type(active) is not bool:
                    raise ContractError(f"record {record_id} needs a string claim, a strength and a boolean active flag")
                CandidateArgument(claim, payload.get("polarity"), Role(payload.get("role")), strength)
                for name, value in (("matched_id", matched_id), ("archived_id", archived_id)):
                    if value is not None and (type(value) is not int or value not in active_ids):
                        raise ContractError(f"{name} {value!r} names no active record")
                if archived_id is not None and archived_id != matched_id:
                    raise ContractError(f"archived_id {archived_id} is not its matched_id {matched_id!r}")
                if not active and (archived_id is not None or matched_id is None):
                    raise ContractError(f"record {record_id} is inactive, so it archives nothing and has a matched_id")
                next_id += 1
            elif kind == "rescaled":
                ids = payload.get("ids")
                if not number_in(_field(event, "factor"), 0.0, sys.float_info.max):
                    raise ContractError(f"factor {payload['factor']!r} is not a finite number >= 0")
                if not (
                    type(ids) is list
                    and all(type(i) is int for i in ids)
                    and all(a < b for a, b in zip([-1, *ids], ids))
                    and (not ids or ids[-1] < next_id)
                ):
                    raise ContractError(f"ids {ids!r} are not increasing ids of stored records")
            elif kind == "header":
                if seq is not None:
                    raise ContractError("is not the first event")
                _check_header(event)
        except (ContractError, ConfigError, ValueError) as exc:  # Role() raises ValueError
            raise TraceVerificationError(f"event {event.seq}: {kind} {exc}", seq=event.seq) from None
        seq = event.seq
        yield event
    if seq is None:
        raise TraceVerificationError("the trace has no header: it holds no event")


def verify_trace(events: list[TraceEvent]) -> BeliefState:
    """Re-derive every contribution and confirm every recorded update.

    Each stored record's contribution is derived again as
    p*log1p(s*gamma(role)) from the header's (u, a), and a rescaled event
    multiplies its active ids' strengths by its factor; a recorded
    contribution further than TOLERANCE from its derived value fails.  The
    replayed L is the left_sum of the derived contributions of the active
    records in id order: those stored since the last update are added to
    the running sum, and the whole active set is folded again after an
    archival or a rescale.  Both give the same L bitwise.

    Raises TraceVerificationError at the first divergent event, at the
    first field it reads that is missing or of the wrong type, at any NaN
    it compares, and at the first event that breaks _checked's rules.
    It trusts each deduplication decision: a record's active flag and the
    archived_id it names.
    """
    return _replay(events)[0]


def verify_trace_file(path) -> tuple[BeliefState, int]:
    """verify_trace over a trace file, read one line at a time; returns
    the final state and the number of events.

    Nothing but the active records' polarity, strength, role and derived
    contribution is kept, so memory grows with the active set, not with
    the trace.  A line is checked as it is read, so the first fault in
    file order is reported, whether it is an unreadable line or a
    divergent event.
    """
    with contextlib.closing(_trace_events(path)) as events:  # the file closes at a fault too
        return _replay(events)


class _Held(NamedTuple):
    """A stored record as the verifier holds it, all record_contribution
    reads."""

    polarity: int
    strength: float
    role: Role


def _replay(events) -> tuple[BeliefState, int]:
    """verify_trace's rule over any iterable of events, read once; returns
    the final state and the number of events seen."""
    active: dict[int, tuple] = {}  # id: (_Held, derived contribution), in id order
    profile = None  # the header's, set by the first event
    resum = False
    count = 0
    current = BeliefState.zero()
    extended = 0.0  # current L plus the contributions stored since
    for count, event in enumerate(_checked(events, active), 1):
        payload = event.payload
        if event.kind == "stored":
            held = _Held(payload["polarity"], payload["strength"], Role(payload["role"]))
            contribution, recorded = record_contribution(held, profile), _field(event, "contribution")
            if not abs(recorded - contribution) <= TOLERANCE:
                raise TraceVerificationError(
                    f"event {event.seq}: stored contribution {recorded!r} != re-derived {contribution!r}", seq=event.seq
                )
            if payload["archived_id"] is not None:
                del active[payload["archived_id"]]
                resum = True
            if payload["active"]:
                active[payload["id"]] = held, contribution
                extended += contribution
        elif event.kind == "rescaled":
            factor = _field(event, "factor")
            for record_id in payload["ids"]:
                if record_id in active:  # an archived record's strength no longer counts
                    held = active[record_id][0]
                    held = held._replace(strength=held.strength * factor)
                    try:
                        check_strength(held.strength, f"rescaled strength of record {record_id}")
                    except ContractError as exc:
                        raise TraceVerificationError(f"event {event.seq}: {exc}", seq=event.seq) from None
                    active[record_id] = held, record_contribution(held, profile)
            resum = True
        elif event.kind == "updated":
            expected = left_sum(contribution for _, contribution in active.values()) if resum else extended
            # Written as `not ... <= TOLERANCE` so that a NaN fails.
            l_before, l_after = _field(event, "L_before"), _field(event, "L_after")
            if not abs(l_before - current.log_odds) <= TOLERANCE:
                raise TraceVerificationError(
                    f"event {event.seq}: L_before {l_before} != replayed {current.log_odds}", seq=event.seq
                )
            if not abs(_field(event, "S_before") - current.stance) <= TOLERANCE:
                raise TraceVerificationError(f"event {event.seq}: S_before inconsistent with L_before", seq=event.seq)
            if not abs(l_after - expected) <= TOLERANCE:
                raise TraceVerificationError(
                    f"event {event.seq}: L_after {l_after} != replayed {expected}", seq=event.seq
                )
            if not abs(_field(event, "S_after") - stance_from_log_odds(expected)) <= TOLERANCE:
                raise TraceVerificationError(
                    f"event {event.seq}: S_after inconsistent with L_after", seq=event.seq
                )
            current = BeliefState.from_log_odds(expected)
            extended = expected
            resum = False
        elif event.kind == "header":
            profile = UAProfile(_field(event, "uptake"), _field(event, "anchoring"))
    return current, count


def store_from_trace(events) -> MemoryStore:
    """The store an agent's trace describes, rebuilt in one pass over its
    events (any iterable).  A stored event inserts its record, then
    archives its archived_id, archived_by the new record.  A record stored
    inactive lost deduplication to its matched_id, which must be the
    nearest active record its resolution searched, with the event's
    similarity, bitwise.  A rescaled event multiplies its records'
    strengths by its factor.  A fault raises TraceVerificationError naming
    the event."""
    store = MemoryStore()
    for event in _checked(events, store._active):
        payload = event.payload
        if event.kind == "rescaled":
            try:
                store.rescale([store.records[i] for i in payload["ids"]], payload["factor"])
            except ContractError as exc:
                raise TraceVerificationError(f"event {event.seq}: {exc}", seq=event.seq) from None
        if event.kind != "stored":
            continue
        claim, role = payload["claim"], Role(payload["role"])
        record = ArgumentRecord(claim, payload["polarity"], payload["strength"], role, store.embed(claim), payload["active"])
        if not record.active:
            nearest = store.nearest(record, own_only=role is Role.SELF)
            similarity = payload.get("similarity")
            if nearest is None or nearest[0].id != payload["matched_id"] or repr(nearest[1]) != repr(similarity):
                raise TraceVerificationError(
                    f"event {event.seq}: no record {payload['matched_id']} to lose to at {similarity!r}", seq=event.seq
                )
            record.archived_by = payload["matched_id"]
        store.insert(record)
        if payload["archived_id"] is not None:
            store.archive(store.records[payload["archived_id"]], archived_by=record.id)
    return store
