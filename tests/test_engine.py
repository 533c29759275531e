import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from credence.core import BeliefState, Role, UAProfile
from credence.engine import (
    TRACE_SCHEMA,
    AgentState,
    TraceEvent,
    compose_response,
    ingest_candidates,
    process_message,
    read_trace,
    refresh_belief,
    rescale,
    stance_to_instruction,
    take_turn,
    template_response,
    verify_trace,
    write_trace,
)
from credence.exceptions import ContractError, TraceVerificationError
from credence.extraction import Message, ScriptedExtractor, parse_scripted_message
from credence.judgement import ArgumentRecord, CandidateArgument
from credence.memory import RetrievalContext


def make_agent(uptake=0.4, anchoring=0.2, k=5):
    return AgentState(agent_id="a", topic="the topic", profile=UAProfile(uptake=uptake, anchoring=anchoring), k=k)


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"theta": math.nan}, "theta must be in [0, 1], got nan"),
        ({"theta": -0.2}, "theta must be in [0, 1], got -0.2"),
        ({"theta": "0.8"}, "theta must be in [0, 1], got '0.8'"),
        ({"theta_self": 1.5}, "theta_self must be in [0, 1], got 1.5"),
        ({"theta_self": True}, "theta_self must be in [0, 1], got True"),
        ({"k": 0}, "k must be >= 1, got 0"),
        ({"k": math.nan}, "k must be >= 1, got nan"),
    ],
)
def test_engine_config_checks_its_values_when_built(setting, message):
    """The engine's settings, theta, theta_self and k, are AgentState's own
    arguments, checked when the agent is built."""
    with pytest.raises(ContractError) as caught:
        AgentState("a", "the topic", UAProfile(uptake=0.4, anchoring=0.2), **setting)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "name, value",
    [
        ("belief", BeliefState.from_log_odds(1.0)),
        ("trace", []),
        ("last_order", 3),
        ("config", None),
    ],
)
def test_agent_state_takes_no_state_the_trace_has_not_recorded(name, value):
    """Only the engine sets an agent's belief, trace and order, so a
    value passed in cannot make the agent's trace fail its own replay;
    the thresholds and ports are AgentState's own arguments."""
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
        AgentState("a", "the topic", UAProfile(uptake=0.4, anchoring=0.2), **{name: value})


def test_agent_state_defaults_to_a_scripted_extractor_and_no_scorer():
    agent = make_agent()
    assert isinstance(agent.extractor, ScriptedExtractor) and agent.scorer is None
    assert (agent.theta, agent.theta_self, agent.k) == (0.8, 0.5, 5)


def test_stance_bins_cover_the_interval():
    assert stance_to_instruction(-1.0)[0] == 0
    assert stance_to_instruction(-0.81)[0] == 0
    assert stance_to_instruction(-0.8)[0] == 1
    assert stance_to_instruction(0.0)[0] == 5
    assert stance_to_instruction(0.99)[0] == 9
    assert stance_to_instruction(1.0)[0] == 9
    with pytest.raises(ContractError):
        stance_to_instruction(1.2)
    for j in range(1, 10):  # left-closed edges land in their upper bin
        assert stance_to_instruction(0.2 * j - 1.0)[0] == j


def test_process_message_updates_belief():
    agent = make_agent()
    events = process_message(agent, Message(text="CLAIM +0.5: x", author_role="opponent", order=0))
    kinds = [e.kind for e in events]
    assert kinds == ["extracted", "stored", "updated"]
    assert agent.belief.log_odds == pytest.approx(math.log1p(0.5 * 0.4))
    assert events[0].payload == {"count": 1}
    assert events[1].payload == {
        "id": 0, "claim": "x", "polarity": 1, "strength": 0.5, "role": "opponent", "active": True,
        "contribution": math.log1p(0.5 * 0.4), "similarity": None, "matched_id": None, "archived_id": None,
    }


def test_an_agent_trace_opens_with_its_header():
    agent = make_agent(uptake=0.3, anchoring=0.6, k=4)
    assert [(e.seq, e.kind) for e in agent.trace] == [(0, "header")]
    assert agent.trace[0].payload == {
        "schema": TRACE_SCHEMA, "agent_id": "a", "topic": "the topic", "uptake": 0.3, "anchoring": 0.6,
        "theta": 0.8, "theta_self": 0.5, "k": 4,
    }


def test_process_message_rejects_stale_order():
    agent = make_agent()
    process_message(agent, Message(text="hello", author_role="opponent", order=3))
    with pytest.raises(ContractError):
        process_message(agent, Message(text="again", author_role="opponent", order=3))


def test_extraction_warnings_enter_trace():
    agent = make_agent()
    process_message(agent, Message(text="CLAIM +9: way too strong", author_role="opponent", order=0))
    assert any(e.kind == "warning" for e in agent.trace)


def test_blank_claim_text_is_a_warning_event_not_an_error():
    agent = make_agent()
    process_message(agent, Message(text="CLAIM +0.5:   \nCLAIM -0.2: kept", author_role="opponent", order=0))
    warnings = [e.payload["message"] for e in agent.trace if e.kind == "warning"]
    assert warnings == ["blank claim text in line 'CLAIM +0.5:'"]
    assert [r.claim for r in agent.memory.records] == ["kept"]


def test_belief_recomputed_after_supersession():
    agent = make_agent()
    process_message(agent, Message(text="CLAIM +0.3: duplicate claim", author_role="opponent", order=0))
    process_message(agent, Message(text="CLAIM +0.9: duplicate claim", author_role="opponent", order=1))
    # Only the stronger survivor contributes; no residue from the archived record.
    assert agent.belief.log_odds == pytest.approx(math.log1p(0.9 * 0.4))
    assert len(agent.memory.active_records()) == 1


def test_compose_emits_claim_lines_that_roundtrip():
    agent = make_agent()
    process_message(agent, Message(text="CLAIM +0.8125: exact binary strength", author_role="opponent", order=0))
    message, events = compose_response(agent)
    assert message.author_role == "self"
    assert "CLAIM +" in message.text
    assert {e.kind for e in events} == {"retrieved", "composed"}
    # Feeding the response back re-extracts the same strength.
    before = len(agent.memory)
    process_message(agent, message)
    echoed = agent.memory.records[before]
    assert echoed.strength == 0.8125 and echoed.role == Role.SELF


def test_take_turn_feeds_self_memory():
    agent = make_agent()
    process_message(agent, Message(text="CLAIM -0.6: there is a downside", author_role="opponent", order=0))
    take_turn(agent)
    assert any(r.role == Role.SELF for r in agent.memory)


def test_trace_roundtrip_and_verify(tmp_path):
    agent = make_agent()
    process_message(agent, Message(text="CLAIM +0.5: x\nCLAIM -0.2: y", author_role="opponent", order=0))
    take_turn(agent)
    path = tmp_path / "trace.jsonl"
    write_trace(path, agent.trace)
    final = verify_trace(read_trace(path))
    assert final.log_odds == pytest.approx(agent.belief.log_odds, abs=1e-12)
    assert final.stance == pytest.approx(agent.belief.stance, abs=1e-12)


def test_verify_rejects_tampered_contribution(tmp_path):
    agent = make_agent()
    process_message(agent, Message(text="CLAIM +0.5: x", author_role="opponent", order=0))
    events = agent.trace
    for event in events:
        if event.kind == "stored":
            event.payload["contribution"] += 1e-6
    with pytest.raises(TraceVerificationError):
        verify_trace(events)


def test_verify_rejects_nonmonotone_seq():
    agent = make_agent()
    process_message(agent, Message(text="CLAIM +0.5: x", author_role="opponent", order=0))
    agent.trace[2].seq = agent.trace[1].seq
    with pytest.raises(TraceVerificationError):
        verify_trace(agent.trace)


def test_verify_empty_trace_is_zero_state():
    """A trace that holds its header and nothing more gives the zero state."""
    final = verify_trace(make_agent().trace)
    assert (final.log_odds, final.stance) == (0.0, 0.0)


def test_verify_rejects_a_trace_without_a_header():
    agent = make_agent()
    process_message(agent, Message(text="CLAIM +0.5: x", author_role="opponent", order=0))
    with pytest.raises(TraceVerificationError, match="^the trace has no header: it holds no event$"):
        verify_trace([])
    with pytest.raises(TraceVerificationError, match="^event 1: the trace has no header: its first event is extracted$"):
        verify_trace(agent.trace[1:])
    with pytest.raises(TraceVerificationError, match="^event 4: header is not the first event$"):
        verify_trace([*agent.trace, TraceEvent(4, "header", agent.trace[0].payload)])


def test_read_trace_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"seq": 0, "kind": "stored", "payload": {}}\nnot json\n')
    with pytest.raises(TraceVerificationError):
        read_trace(path)


def test_seed_records_weighted_by_anchoring():
    agent = make_agent(uptake=0.0, anchoring=0.9)
    ingest_candidates(agent, [CandidateArgument(claim="founding reason", polarity=1, role=Role.SEED, strength_hint=0.5)])
    refresh_belief(agent)
    assert agent.belief.log_odds == pytest.approx(math.log1p(0.5 * 0.9))


def test_rescale_moves_l_as_the_trace_replays_it_and_a_refused_one_records_nothing():
    agent = make_agent(anchoring=0.7)
    candidates = [CandidateArgument("one reason", 1, Role.SEED, 0.5), CandidateArgument("another worry", -1, Role.SEED, 0.25)]
    records = ingest_candidates(agent, candidates)
    refresh_belief(agent)
    rescale(agent, records, 0.5)
    refresh_belief(agent)
    assert [r.strength for r in records] == [0.25, 0.125]
    assert agent.trace[-2].payload == {"factor": 0.5, "ids": [0, 1]}
    assert agent.belief.log_odds == math.log1p(0.25 * 0.7) - math.log1p(0.125 * 0.7)
    assert verify_trace(agent.trace) == agent.belief
    before = list(agent.trace)
    with pytest.raises(ContractError, match="rescaled strength of record 0"):
        rescale(agent, records, 5.0)
    assert agent.trace == before and [r.strength for r in records] == [0.25, 0.125]


def _verified_trace(tmp_path):
    agent = make_agent()
    process_message(agent, Message(text="CLAIM +0.5: x\nCLAIM -0.2: y", author_role="opponent", order=0))
    take_turn(agent)
    path = tmp_path / "trace.jsonl"
    write_trace(path, agent.trace)
    return path, verify_trace(agent.trace)


@pytest.mark.parametrize(
    "prefix, suffix, message",
    [
        ("", ' {"seq": 1}', "Extra data"),
        ("", " x", "Extra data"),
        ("", "\t{}", "Extra data"),
        ("", "x", "Extra data"),
        ("\ufeff", "", "Unexpected UTF-8 BOM"),
        # A None suffix: the prefix replaces the whole line, and the scanner
        # finds no value at its start.
        ("not json", None, "Expecting value"),
        ("]", None, "Expecting value"),
        (",", None, "Expecting value"),
        ('"unterminated', None, "Unterminated string starting at"),
        ('"\\q"', None, "Invalid \\escape"),
    ],
)
def test_read_trace_reports_unreadable_lines_as_json_loads_does(tmp_path, prefix, suffix, message):
    path, _ = _verified_trace(tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = prefix if suffix is None else prefix + lines[1] + suffix
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(json.JSONDecodeError) as loads_error:
        json.loads(lines[1])
    with pytest.raises(TraceVerificationError) as error:
        read_trace(path)
    assert str(error.value) == f"unreadable trace line 2: {loads_error.value}"
    assert str(error.value).startswith(f"unreadable trace line 2: {message}")


@pytest.mark.parametrize("pad, newline", [("  ", "\n"), ("\t ", "\n"), ("", "\r\n"), (" ", "\r\n")])
def test_read_trace_accepts_padded_and_crlf_lines(tmp_path, pad, newline):
    path, expected = _verified_trace(tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_bytes("".join(f"{pad}{line}{pad}{newline}" for line in lines).encode("utf-8"))
    assert verify_trace(read_trace(path)) == expected


# A claim holds no line separator (check_candidate refuses one); the
# codec's escapes of separators in other strings are the next test's.
@settings(max_examples=60, deadline=None)
@given(claims=st.lists(st.text(min_size=1).filter(lambda t: t.strip() and t.splitlines() == [t]), min_size=1, max_size=5))
@example(
    claims=[
        'say "no" \\ then \x00\x1f\x7f',
        "na\u00efve caf\u00e9 \u2615 \u65e5\u672c",
        "line\tbreak\ttab",
        "sep \x1f\ufeff end",
    ]
)
def test_trace_text_round_trips_byte_identically(tmp_path_factory, claims):
    agent = make_agent()
    ingest_candidates(agent, [CandidateArgument(claim=claim, polarity=1, role=Role.OPPONENT, strength_hint=0.5) for claim in claims])
    refresh_belief(agent)
    directory = tmp_path_factory.mktemp("trace")
    first, second = directory / "first.jsonl", directory / "second.jsonl"
    write_trace(first, agent.trace)
    events = read_trace(first)
    write_trace(second, events)
    assert second.read_bytes() == first.read_bytes()
    lines = first.read_text(encoding="utf-8").split("\n")[:-1]
    assert [json.loads(line) for line in lines] == [
        {"seq": e.seq, "kind": e.kind, "payload": e.payload} for e in events
    ]
    assert [e.payload for e in events] == [e.payload for e in agent.trace]


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)) | st.sampled_from("\x00\x1f\x7f\x85\xa0\u2028\ufeff\"\\"))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | _TEXT,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_TEXT, children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=80, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(), _TEXT, st.dictionaries(_TEXT, _JSON_VALUES, max_size=5)), max_size=6))
@example(
    rows=[
        (
            0,
            "stored",
            {
                "claim": "na\u00efve \u65e5\u672c \u2028 \x00\x1f\x7f \\ \"",
                "floats": [-0.0, 5e-324, 1.7976931348623157e308, 0.1, -1.5],
                "ints": [0, -7, 2**70],
                "none": None,
                "flags": [True, False],
            },
        )
    ]
)
@example(rows=[(-(2**70), 'k "\\ \u2028 \x00', {})])
def test_trace_lines_are_json_dumps_bytes(tmp_path_factory, rows):
    events = [TraceEvent(seq, kind, payload) for seq, kind, payload in rows]
    lines = [json.dumps({"seq": e.seq, "kind": e.kind, "payload": e.payload}, ensure_ascii=False) for e in events]
    assert [event.to_json() for event in events] == lines
    path = tmp_path_factory.mktemp("trace") / "events.jsonl"
    write_trace(path, events)
    assert path.read_bytes() == "".join(line + "\n" for line in lines).encode("utf-8")
    assert read_trace(path) == events


@settings(max_examples=500, deadline=None)
@given(strengths=st.lists(st.floats(0.0, 1.0, allow_subnormal=True), min_size=1, max_size=5))
# .17f printed this one as 0.05442292252959519, which parses back larger.
@example(strengths=[0.054422922529595186])
@example(strengths=[5e-324, 2.2250738585072014e-308, 0.1, 0.09999999999999999, 1.0, 0.0])
def test_template_claim_lines_return_every_strength_bitwise(strengths):
    """Each retrieved strength, printed by template_response and read back
    by the scripted parser, is the same float, for every strength in
    [0, 1]; strengths from 0.1 up print as they always did (.17f)."""
    records = [ArgumentRecord(f"claim {i}", 1, s, Role.OPPONENT, None) for i, s in enumerate(strengths)]
    text = template_response("lean toward the proposition", RetrievalContext(records, len(records), 0))
    parsed = parse_scripted_message(Message(text=text, author_role="self", order=0))
    assert [c.strength_hint.hex() for c in parsed] == [s.hex() for s in strengths]
    for line, strength in zip(text.splitlines()[1:], strengths):
        if strength >= 0.1 or strength == 0.0:
            assert line.startswith(f"CLAIM +{strength:.17f}:")


@settings(max_examples=200, deadline=None)
@given(strength=st.floats(0.0, 1.0, allow_subnormal=True))
@example(strength=0.054422922529595186)
def test_a_seed_is_never_archived_by_its_own_echo(strength):
    """The agent's own turn echoes its seed with the same strength, so the
    echo ties and the seed stays active: L does not move."""
    agent = make_agent(anchoring=0.7)
    (seed,) = ingest_candidates(agent, [CandidateArgument("founding reason", 1, Role.SEED, strength)])
    refresh_belief(agent)
    before = agent.belief.log_odds
    take_turn(agent)
    echo = agent.memory.records[-1]
    assert (echo.role, echo.strength) == (Role.SELF, strength)
    assert seed.active and not echo.active and echo.archived_by == seed.id
    assert agent.belief.log_odds == before
