"""Per-message update loop and the audit trace.

For every incoming message the engine extracts candidates, scores them,
runs conflict resolution, stores the records, brings the belief state up
to date with the active set, and (for its own turns) composes a response
from a stance instruction plus retrieved memory.  Every sub-step emits a
trace event; the trace alone reconstructs the final belief state.
"""

from __future__ import annotations

import bisect
import codecs
import contextlib
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Optional

from .core import (
    BeliefState,
    Role,
    UAProfile,
    compute_log_odds,
    left_sum,
    number_in,
    record_contribution,
    stance_from_log_odds,
    update_incremental,
)
from .exceptions import ContractError, TraceVerificationError
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

# How far a recorded L or S may sit from the value the trace replays to.
TOLERANCE = 1e-12


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
    """Judge and store one candidate; emits scored/resolved/stored."""
    config = agent.config
    record, outcome = judge(agent.memory, candidate, agent.topic, config.scorer, config.theta, config.theta_self)
    agent.emit("scored", claim=candidate.claim, strength=record.strength, role=candidate.role.value)
    # Only a superseded pre-existing record goes here; a losing new record
    # is announced through its own stored event (active=False).
    archived_id = outcome.superseded.id if outcome.superseded is not None else None
    agent.emit(
        "resolved",
        kept_new=outcome.kept_new,
        similarity=outcome.similarity,
        archived_id=archived_id,
    )
    agent.emit("stored", **_stored_payload(record, agent.profile))
    return record


def _stored_payload(record: ArgumentRecord, profile: UAProfile) -> dict:
    return {
        "id": record.id,
        "claim": record.claim,
        "polarity": record.polarity,
        "strength": record.strength,
        "role": record.role.value,
        "active": record.active,
        "contribution": record_contribution(record, profile),
    }


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
    agent.emit("extracted", count=len(candidates), claims=[c.claim for c in candidates])

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
    line_number = 0
    with open(path, "rb") as handle:
        first = handle.readline().removeprefix(codecs.BOM_UTF8)
        for chunk in itertools.chain((first,), handle):
            for raw in chunk.splitlines() if b"\r" in chunk else (chunk,):
                line_number += 1
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


def _field(event: TraceEvent, key: str):
    """A number field of the payload that verify_trace reads (a boolean is
    not a number); else TraceVerificationError."""
    value = event.payload.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TraceVerificationError(f"event {event.seq}: {event.kind} {key} {value!r} is not a number", seq=event.seq)
    return value


def _checked(events, active_ids):
    """Yield each event, with whether it stores a new id, once it keeps the
    rules both trace readers apply; else raise TraceVerificationError
    naming it.  active_ids holds the reader's active records by id, which
    the reader brings up to date before the next event.  Seqs increase.  A
    resolved event's archived_id is null or in active_ids, and its kept_new
    is a boolean, true with an archived_id.  A stored record passes a
    candidate argument's checks and has a string claim, a strength, a
    boolean active flag and an id up to the next id; an id stored again
    keeps its active flag.  A new id directly follows its own scored and
    resolved events: the record's strength, role and stripped claim, and
    kept_new equal to its active flag.  A scored event is directly
    followed by a resolved event, and that by the stored event of the next
    id; the trace does not end between them."""
    scored = resolved = TraceEvent(-1, "", {})  # the two events before this one
    next_id = 0
    for event in events:
        seq, kind, payload = event.seq, event.kind, event.payload
        if seq <= resolved.seq:
            raise TraceVerificationError(f"event {seq}: {kind} seq does not increase", seq=seq)
        new = kind == "stored" and payload.get("id") == next_id
        try:
            if kind == "resolved":
                archived_id, kept_new = payload.get("archived_id"), payload.get("kept_new")
                if archived_id is not None and (type(archived_id) is not int or archived_id not in active_ids):
                    raise ContractError(f"archived_id {archived_id!r} names no active record")
                if type(kept_new) is not bool or (archived_id is not None and not kept_new):
                    raise ContractError(f"kept_new {kept_new!r} must be a boolean, true with an archived_id")
            elif kind == "stored":
                record_id, claim, strength, role, active = map(payload.get, ("id", "claim", "strength", "role", "active"))
                if type(record_id) is not int or not 0 <= record_id <= next_id:
                    raise ContractError(f"id {record_id!r} is neither the next id {next_id} nor one already stored")
                if not isinstance(claim, str) or strength is None or type(active) is not bool:
                    raise ContractError(f"record {record_id} needs a string claim, a strength and a boolean active flag")
                CandidateArgument(claim, payload.get("polarity"), Role(role), strength)
                if not new:
                    if active != (record_id in active_ids):
                        raise ContractError(f"record {record_id} stored again as another: active {active}")
                else:
                    said = scored.payload
                    order = (scored.kind, type(said.get("claim")), resolved.kind, resolved.payload.get("kept_new"))
                    if order != ("scored", str, "resolved", active):
                        raise ContractError(f"record {record_id} does not follow its scored event and kept_new {active}")
                    if (said["claim"].strip(), said.get("strength"), said.get("role")) != (claim, strength, role):
                        raise ContractError(f"record {record_id} is not the claim scored at event {scored.seq}")
            if resolved.kind == "scored" and kind != "resolved":
                raise ContractError(f"follows scored event {resolved.seq} in place of its resolved event")
            if resolved.kind == "resolved" and not new:
                raise ContractError(f"follows resolved event {resolved.seq} in place of the stored event of record {next_id}")
        except (ContractError, ValueError) as exc:  # Role() raises ValueError
            raise TraceVerificationError(f"event {seq}: {kind} {exc}", seq=seq) from None
        next_id += new
        yield event, new
        scored, resolved = resolved, event
    if resolved.kind in ("scored", "resolved"):
        raise TraceVerificationError(
            f"event {resolved.seq}: {resolved.kind} ends the trace before record {next_id} is stored", seq=resolved.seq
        )


def verify_trace(events: list[TraceEvent]) -> BeliefState:
    """Replay stored contributions and confirm every recorded update.

    The replayed L is the left_sum of the active contributions in id
    order.  Contributions stored since the last update are added to the
    running sum; the whole active set is folded again after an archival
    or after an id is stored again, as a seed rescale does.  Both give
    the same L bitwise.

    Raises TraceVerificationError at the first divergent event, at the
    first field it reads that is missing or of the wrong type, at any NaN
    it compares, and at the first event that breaks _checked's rules.
    It trusts each stored contribution.
    """
    return _replay(events)[0]


def verify_trace_file(path) -> tuple[BeliefState, int]:
    """verify_trace over a trace file, read one line at a time; returns
    the final state and the number of events.

    Nothing but the active records' contributions is kept, so memory
    grows with the active set, not with the trace.  A line is checked as
    it is read, so the first fault in file order is reported, whether it
    is an unreadable line or a divergent event.
    """
    with contextlib.closing(_trace_events(path)) as events:  # the file closes at a fault too
        return _replay(events)


def _replay(events) -> tuple[BeliefState, int]:
    """verify_trace's rule over any iterable of events, read once; returns
    the final state and the number of events seen."""
    contributions: dict[int, float] = {}  # the active records' only, in id order: a re-store keeps its place
    pending: list[int] = []  # active ids stored since the last update, increasing
    resum = False
    count = 0
    current = BeliefState.zero()
    for count, (event, new) in enumerate(_checked(events, contributions), 1):
        payload = event.payload
        if event.kind == "stored":
            contribution = _field(event, "contribution")
            resum = resum or not new
            if payload["active"]:
                contributions[payload["id"]] = contribution
                pending.append(payload["id"])
        elif event.kind == "resolved":
            if payload.get("archived_id") is not None:
                del contributions[payload["archived_id"]]
                resum = True
        elif event.kind == "updated":
            if resum:
                expected = left_sum(contributions.values())
            else:
                expected = current.log_odds
                for record_id in pending:
                    expected += contributions[record_id]
            pending.clear()
            resum = False
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
    return current, count


def store_from_trace(events) -> MemoryStore:
    """The store an agent's trace describes, rebuilt in one pass over its
    events (any iterable).  An id stored again is a seed rescale.  A record
    stored inactive lost deduplication to the nearest active record its
    resolution searched, which must have the resolved event's similarity,
    bitwise.  A fault raises TraceVerificationError naming the event."""
    store = MemoryStore()
    for event, new in _checked(events, store._active):
        payload = event.payload
        if event.kind == "resolved":
            if payload.get("archived_id") is not None:  # archived by the record stored next
                store.archive(store.records[payload["archived_id"]], archived_by=store.insertion_counter)
            similarity = payload.get("similarity")  # for the new id stored next
        if event.kind != "stored":
            continue
        claim, role = payload["claim"], Role(payload["role"])
        record = ArgumentRecord(claim, payload["polarity"], payload["strength"], role, store.embed(claim), payload["active"])
        if not new:
            stored = store.records[payload["id"]]
            if (stored.claim, stored.polarity, stored.role) != (claim, record.polarity, role):
                raise TraceVerificationError(f"event {event.seq}: record {stored.id} stored again as another", seq=event.seq)
            store.set_strengths([(stored, record.strength)])
        else:
            if not record.active:
                nearest = store.nearest(record, own_only=role is Role.SELF)
                if nearest is None or repr(nearest[1]) != repr(similarity):
                    raise TraceVerificationError(f"event {event.seq}: no record to lose to at {similarity!r}", seq=event.seq)
                record.archived_by = nearest[0].id
            store.insert(record)
    return store
