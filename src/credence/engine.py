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
from types import SimpleNamespace
from typing import NamedTuple, Optional

from .core import (
    BeliefState,
    Fold,
    Role,
    UAProfile,
    check_strength,
    number_in,
    record_contribution,
    stance_from_log_odds,
)
from .exceptions import ConfigError, ContractError, TraceVerificationError
from .extraction import ExtractorPort, Message, ScriptedExtractor
from .judgement import ArgumentRecord, ScorerPort, check_candidate, ingest_record, judge
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


def _decimal(strength: float) -> str:
    """A strength in [0, 1] in fixed-point notation, as the CLAIM grammar
    reads it (no exponent), that parses back to the same float: 17
    digits after the point, and below 0.1 as many more as keep 17
    significant digits, which pin down any double, subnormals included."""
    if strength >= 0.1 or strength == 0.0:
        return f"{strength:.17f}"
    exponent = int(f"{strength:.16e}".partition("e")[2])
    return f"{strength:.{16 - exponent}f}"


def template_response(stance_instruction: str, retrieved: RetrievalContext) -> str:
    """The deterministic, model-free response: the stance instruction
    followed by the retrieved claims in the scripted-claim grammar, so a
    listening agent can re-extract them.  Every strength parses back to
    the same float (see _decimal)."""
    lines = [stance_instruction]
    for record in retrieved.records:
        sign = "+" if record.polarity > 0 else "-"
        lines.append(f"CLAIM {sign}{_decimal(record.strength)}: {record.claim}")
    return "\n".join(lines)


def check_ranges(settings, counts: tuple) -> None:
    """Reject a theta or theta_self that is not a number in [0, 1] and a
    named count that is not an integer >= 1 (a boolean is none): the check
    an AgentState makes when it is built, a trace header's, and the run
    configs'."""
    for name in ("theta", "theta_self"):
        if not number_in(getattr(settings, name), 0.0, 1.0):
            raise ContractError(f"{name} must be in [0, 1], got {getattr(settings, name)!r}")
    for name in counts:
        value = getattr(settings, name)
        if not (number_in(value, 1, math.inf) or isinstance(value, bool)):
            raise ContractError(f"{name} must be >= 1, got {value!r}")
        if type(value) is not int:
            raise ContractError(f"{name} must be an integer >= 1, got {value!r}")


# A trace line is json.dumps(row, ensure_ascii=False) of its row
# {"seq": ..., "kind": ..., "payload": ...}, byte for byte.  TraceEvent.to_json
# writes the frame itself (seq as an int, kind by json's string encoder) and
# only the payload goes through one encoder, built here once; json.dumps and
# JSONEncoder.encode build a new encoder per call.  It skips the
# circular-reference check: the engine builds every payload, and none
# refers to itself.  The reader calls one decoder's scanner on each line.
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

    def _encode_payload(payload: dict) -> str:
        return "".join(_iterencode(payload, 0))

else:  # json without its C accelerator
    _encode_payload = _line_settings.encode
_encode_kind = json.encoder.encode_basestring
_scan_once = json.JSONDecoder().scan_once

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
        return f'{{"seq": {self.seq:d}, "kind": {_encode_kind(self.kind)}, "payload": {_encode_payload(self.payload)}}}'


@dataclass
class AgentState:
    """An agent: what its trace header records, set by the caller, and the
    state only the engine moves, from what the trace records."""

    agent_id: str
    topic: str
    profile: UAProfile
    theta: float = 0.80
    theta_self: float = 0.50
    k: int = 5
    scorer: Optional[ScorerPort] = None  # None: every candidate must carry a strength hint
    extractor: Optional[ExtractorPort] = None  # None: a ScriptedExtractor
    # A store, belief, trace or order passed in would hold what the trace
    # never recorded.
    memory: MemoryStore = field(default_factory=MemoryStore, init=False)
    belief: BeliefState = field(default_factory=BeliefState.zero, init=False)
    trace: list = field(default_factory=list, init=False)
    last_order: int = field(default=-1, init=False)
    # L's terms, which only what the trace records changes.
    fold: Fold = field(default_factory=Fold, init=False, repr=False, compare=False)

    def __post_init__(self):
        """Check theta, theta_self and k, then open the trace with its
        header: what a reader needs to re-derive every contribution and to
        know the thresholds the run used."""
        check_ranges(self, ("k",))
        if self.extractor is None:
            self.extractor = ScriptedExtractor()
        self.emit(
            "header",
            schema=TRACE_SCHEMA,
            agent_id=self.agent_id,
            topic=self.topic,
            uptake=self.profile.uptake,
            anchoring=self.profile.anchoring,
            theta=self.theta,
            theta_self=self.theta_self,
            k=self.k,
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


def ingest_candidates(agent: AgentState, candidates: list) -> list[ArgumentRecord]:
    """Judge and store candidates one at a time, in order; each emits its
    one stored event as soon as it is settled: the record, its
    contribution, and the deduplication outcome (the nearest active
    record's similarity and id, and the record it archived).  The fold
    takes the contribution of an active record and drops the record it
    archived."""
    fold = agent.fold
    records = []
    for candidate in candidates:
        record, outcome = judge(agent.memory, candidate, agent.topic, agent.scorer, agent.theta, agent.theta_self)
        contribution = record_contribution(record, agent.profile)
        agent.emit(
            "stored",
            id=record.id,
            claim=record.claim,
            polarity=record.polarity,
            strength=record.strength,
            role=record.role.value,
            active=record.active,
            contribution=contribution,
            similarity=outcome.similarity,
            matched_id=outcome.matched_id,
            archived_id=outcome.superseded.id if outcome.superseded is not None else None,
        )
        if outcome.superseded is not None:
            fold.delete(outcome.superseded.id)
        if record.active:
            fold.put(record.id, contribution)
        records.append(record)
    return records


def rescale(agent: AgentState, records: list[ArgumentRecord], factor: float) -> None:
    """Multiply the strengths of records of the agent's store by factor,
    emit the rescaled event, and put again the re-derived term of each one
    the fold holds, as replay_trace rescales the records it holds active."""
    agent.memory.rescale(records, factor)
    agent.emit("rescaled", factor=factor, ids=[r.id for r in records])
    for record in records:
        if record.id in agent.fold.terms:
            agent.fold.put(record.id, record_contribution(record, agent.profile))


def refresh_belief(agent: AgentState) -> TraceEvent:
    """Set L to the fold's total, with before/after in the trace."""
    before = agent.belief
    agent.belief = BeliefState.from_log_odds(agent.fold.total())
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
    candidates = agent.extractor.extract(agent.topic, incoming, on_warning=warnings.append)
    for message in warnings:
        agent.emit("warning", message=message)
    agent.emit("extracted", count=len(candidates))
    ingest_candidates(agent, candidates)

    refresh_belief(agent)
    agent.last_order = incoming.order
    return agent.trace[start:]


def compose_response(agent: AgentState) -> tuple[Message, list[TraceEvent]]:
    """Retrieve context, build the stance instruction, fill the template."""
    start = len(agent.trace)
    retrieved = agent.memory.retrieve(agent.k)
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
    A UTF-8 byte-order mark is dropped at the start of the first chunk,
    the file's start, and nowhere else.  A line may keep its LF; callers
    strip each line."""
    chunks = iter(chunks)
    first = next(chunks, None)
    if first is None:
        return
    for chunk in itertools.chain((first.removeprefix(codecs.BOM_UTF8),), chunks):
        if b"\r" in chunk:
            yield from chunk.splitlines()
        else:
            yield chunk


def _trace_events(path):
    """Yield a trace file's events one line at a time.

    Lines end at LF, CRLF or a lone CR, as in text mode.  Each line is
    decoded on its own as UTF-8, so bytes that are not UTF-8 fail with the
    number of their line; a byte-order mark is skipped at the start of the
    file only.  Each non-blank line, stripped, must hold exactly one JSON
    value (else it fails with json.loads's message, a value nested too deep
    for json's parser included): an object with an
    integer seq, a string kind and an object payload; else
    TraceVerificationError.
    """
    with open(path, "rb") as handle:
        for line_number, raw in enumerate(split_lines(handle), 1):
            try:
                line = raw.decode().strip()
                if not line:
                    continue
                try:
                    row, end = _scan_once(line, 0)
                except (StopIteration, ValueError):  # no value at 0, or a malformed one
                    end = -1
                if end != len(line):
                    row = json.loads(line)  # fails, with its own message (extra data, a byte-order mark)
            except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep to parse
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


def _check_header(event: TraceEvent) -> UAProfile:
    """The profile of a header whose schema is TRACE_SCHEMA, whose agent
    id and topic are strings, whose (u, a) make a UAProfile and whose
    theta, theta_self and k pass check_ranges; else ContractError or
    ConfigError."""
    payload = event.payload
    if payload.get("schema") != TRACE_SCHEMA:
        raise ContractError(f"schema {payload.get('schema')!r} is not {TRACE_SCHEMA}")
    if not (isinstance(payload.get("agent_id"), str) and isinstance(payload.get("topic"), str)):
        raise ContractError("needs a string agent_id and topic")
    profile = UAProfile(_field(event, "uptake"), _field(event, "anchoring"))
    check_ranges(SimpleNamespace(**{name: payload.get(name) for name in ("theta", "theta_self", "k")}), ("k",))
    return profile


# Each Role by its value: the replay's lookup, cheaper than a Role() call.
_ROLES = {role.value: role for role in Role}


class _Held(NamedTuple):
    """A stored record as the replay holds it, all record_contribution
    reads."""

    polarity: int
    strength: float
    role: Role


def replay_trace(events):
    """Check and replay a trace's events (any iterable, read once): yield
    each event that keeps every rule below with the belief state after
    it; else raise TraceVerificationError naming the event.

    The first event is the header (see _check_header), and no other
    event is one.  Seqs increase.  A stored event holds the next id and a
    record that passes a candidate argument's checks, with a string claim,
    a strength and a boolean active flag.  Its matched_id is null or an
    active record, its similarity null with it and else a number in [0, 1],
    and its archived_id null or that same record; a record stored inactive
    archives nothing and has a matched_id.  A rescaled event holds a finite
    factor >= 0 and increasing ids of stored records.  An extracted event
    holds an int count >= 0.  A retrieved event holds ints k_plus, k_minus
    >= 0 summing to the header's k, and at most k distinct ids of active
    records.  A composed event holds the (bin, label) stance_to_instruction
    gives for the replayed stance.  A warning event holds a string message.
    An event of any other kind fails.

    Each stored record's contribution is derived again as
    p*log1p(s*gamma(role)) from the header's (u, a), and a rescaled event
    multiplies its active ids' strengths by its factor; a recorded
    contribution further than TOLERANCE from its derived value fails.  The
    replayed L is the total of a core.Fold of the active records' derived
    contributions, as the engine's own L is, so both fold L by the same
    code.  An updated event's L and S must be within TOLERANCE of the
    replay's, and every number read must be an int or float within float
    range (a NaN fails).

    Only the active records' polarity, strength, role and derived
    contribution are kept, so memory grows with the active set, not with
    the trace.  Each deduplication decision (a record's active flag,
    similarity, matched_id and archived_id) is taken as recorded.
    """
    active: dict[int, _Held] = {}
    fold = Fold()  # the active records' derived contributions
    profile = k = None  # the header's, set by the first event
    seq = None  # the previous event's
    next_id = 0
    current = BeliefState.zero()
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
                record_id, claim, strength, kept, matched_id, archived_id, similarity = map(
                    payload.get, ("id", "claim", "strength", "active", "matched_id", "archived_id", "similarity")
                )
                if type(record_id) is not int or record_id != next_id:
                    raise ContractError(f"id {record_id!r} is not the next id {next_id}")
                if not isinstance(claim, str) or strength is None or type(kept) is not bool:
                    raise ContractError(f"record {record_id} needs a string claim, a strength and a boolean active flag")
                value = payload.get("role")
                role = _ROLES.get(value) if type(value) is str else None
                if role is None:
                    role = Role(value)  # raises ValueError, with Enum's message
                check_candidate(claim, payload.get("polarity"), strength)
                for name, value in (("matched_id", matched_id), ("archived_id", archived_id)):
                    if value is not None and (type(value) is not int or value not in active):
                        raise ContractError(f"{name} {value!r} names no active record")
                if matched_id is None:
                    if similarity is not None:
                        raise ContractError(f"similarity {similarity!r} has no matched_id")
                elif not number_in(similarity, 0.0, 1.0):
                    raise ContractError(f"similarity {similarity!r} of matched_id {matched_id} is not a number in [0, 1]")
                if archived_id is not None and archived_id != matched_id:
                    raise ContractError(f"archived_id {archived_id} is not its matched_id {matched_id!r}")
                if not kept and (archived_id is not None or matched_id is None):
                    raise ContractError(f"record {record_id} is inactive, so it archives nothing and has a matched_id")
                held = _Held(payload["polarity"], strength, role)
                contribution, recorded = record_contribution(held, profile), _field(event, "contribution")
                if not abs(recorded - contribution) <= TOLERANCE:
                    raise ContractError(f"contribution {recorded!r} != re-derived {contribution!r}")
                if archived_id is not None:
                    del active[archived_id]
                    fold.delete(archived_id)
                if kept:
                    active[record_id] = held
                    fold.put(record_id, contribution)
                next_id += 1
            elif kind == "rescaled":
                ids, factor = payload.get("ids"), _field(event, "factor")
                if not number_in(factor, 0.0, sys.float_info.max):
                    raise ContractError(f"factor {payload['factor']!r} is not a finite number >= 0")
                if not (
                    type(ids) is list
                    and all(type(i) is int for i in ids)
                    and all(a < b for a, b in zip([-1, *ids], ids))
                    and (not ids or ids[-1] < next_id)
                ):
                    raise ContractError(f"ids {ids!r} are not increasing ids of stored records")
                for record_id in ids:
                    if record_id in active:  # an archived record's strength no longer counts
                        held = active[record_id]
                        active[record_id] = held = held._replace(strength=held.strength * factor)
                        check_strength(held.strength, f"strength of record {record_id}")
                        fold.put(record_id, record_contribution(held, profile))
            elif kind == "updated":
                expected = fold.total()
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
                stance = stance_from_log_odds(expected)
                if not abs(_field(event, "S_after") - stance) <= TOLERANCE:
                    raise TraceVerificationError(f"event {event.seq}: S_after inconsistent with L_after", seq=event.seq)
                current = BeliefState(expected, stance)
            elif kind == "retrieved":
                k_plus, k_minus, ids = map(payload.get, ("k_plus", "k_minus", "ids"))
                if not (type(k_plus) is type(k_minus) is int and k_plus >= 0 and k_minus >= 0 and k_plus + k_minus == k):
                    raise ContractError(f"k_plus {k_plus!r} and k_minus {k_minus!r} are not ints >= 0 summing to k {k}")
                if not (
                    type(ids) is list
                    and len(ids) <= k
                    and all(type(i) is int and i in active for i in ids)
                    and len(set(ids)) == len(ids)
                ):
                    raise ContractError(f"ids {ids!r} are not at most {k} distinct ids of active records")
            elif kind == "composed":
                instruction = payload.get("bin"), payload.get("label")
                expected = stance_to_instruction(current.stance)
                if type(instruction[0]) is not int or instruction != expected:
                    raise ContractError(f"(bin, label) {instruction!r} is not {expected!r}, of the replayed stance")
            elif kind == "extracted":
                count = payload.get("count")
                if type(count) is not int or count < 0:
                    raise ContractError(f"count {count!r} is not an int >= 0")
            elif kind == "warning":
                if not isinstance(payload.get("message"), str):
                    raise ContractError(f"message {payload.get('message')!r} is not a string")
            elif kind == "header":
                if seq is not None:
                    raise ContractError("is not the first event")
                profile, k = _check_header(event), payload["k"]
            else:
                raise ContractError("is not an event kind of the trace format")
        except (ContractError, ConfigError, ValueError) as exc:  # Role() raises ValueError
            raise TraceVerificationError(f"event {event.seq}: {kind} {exc}", seq=event.seq) from None
        seq = event.seq
        yield event, current
    if seq is None:
        raise TraceVerificationError("the trace has no header: it holds no event")


def _final_state(events) -> tuple[BeliefState, int]:
    """The belief state after replay_trace's last event, and the number of
    events."""
    count = 0
    for count, (_, state) in enumerate(replay_trace(events), 1):
        pass
    return state, count


def verify_trace(events: list[TraceEvent]) -> BeliefState:
    """The final belief state of a list of events, each checked by
    replay_trace: every contribution re-derived and every recorded update
    confirmed.  It trusts each deduplication decision; store_from_trace
    re-derives them."""
    return _final_state(events)[0]


def verify_trace_file(path) -> tuple[BeliefState, int]:
    """verify_trace over a trace file, read one line at a time; returns
    the final state and the number of events.  A line is checked as it is
    read, so the first fault in file order is reported, whether it is an
    unreadable line or a divergent event."""
    with contextlib.closing(_trace_events(path)) as events:  # the file closes at a fault too
        return _final_state(events)


def store_from_trace(events) -> MemoryStore:
    """The store an agent's trace describes, rebuilt in one replay_trace
    pass over its events (any iterable), so it fails wherever
    verify_trace does.  Each stored record goes through ingest_record at
    the header's theta and theta_self, and the decision it makes (active
    flag, similarity by repr, matched_id and archived_id) must be the
    event's.  A rescaled event multiplies its records' strengths by its
    factor.  A fault raises TraceVerificationError naming the event."""
    store = MemoryStore()
    for event, _ in replay_trace(events):
        payload = event.payload
        if event.kind == "stored":
            claim, role = payload["claim"], _ROLES[payload["role"]]
            text = store._text(claim)
            record = ArgumentRecord(claim, payload["polarity"], payload["strength"], role, text[0])
            outcome = ingest_record(store, record, *thresholds, text)
            derived = (
                ("active", record.active),
                ("similarity", outcome.similarity),
                ("matched_id", outcome.matched_id),
                ("archived_id", outcome.superseded.id if outcome.superseded is not None else None),
            )
            for name, value in derived:
                if repr(payload.get(name)) != repr(value):
                    raise TraceVerificationError(
                        f"event {event.seq}: stored {name} {payload.get(name)!r} != re-derived {value!r}", seq=event.seq
                    )
        elif event.kind == "rescaled":
            try:
                store.rescale([store.records[i] for i in payload["ids"]], payload["factor"])
            except ContractError as exc:
                raise TraceVerificationError(f"event {event.seq}: {exc}", seq=event.seq) from None
        elif event.kind == "header":
            thresholds = payload["theta"], payload["theta_self"]
    return store
