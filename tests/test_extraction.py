import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from credence import judgement
from credence.core import Role
from credence.engine import template_response
from credence.exceptions import ContractError, ExtractionBackendError
from credence.extraction import (
    CLAIM_LINE,
    Message,
    ScriptedExtractor,
    ServiceExtractor,
    parse_scripted_message,
)
from credence.judgement import CandidateArgument, check_candidate, judge
from credence.memory import MemoryStore, RetrievalContext


def msg(text, author="opponent", order=0):
    return Message(text=text, author_role=author, order=order)


def test_message_rejects_unknown_author():
    with pytest.raises(ContractError):
        Message(text="x", author_role="moderator", order=0)


def test_parse_single_claim():
    (candidate,) = parse_scripted_message(msg("CLAIM +0.8: parks are underfunded"))
    assert candidate.claim == "parks are underfunded"
    assert candidate.polarity == 1
    assert candidate.strength_hint == 0.8
    assert candidate.role == Role.OPPONENT


def test_parse_negative_signs():
    text = "CLAIM -0.5: a\nCLAIM −0.25: b"
    candidates = parse_scripted_message(msg(text))
    assert [c.polarity for c in candidates] == [-1, -1]
    assert [c.strength_hint for c in candidates] == [0.5, 0.25]


def test_parse_skips_prose_lines():
    text = "I disagree entirely.\nCLAIM +0.6: the levy is regressive\nthink about it"
    candidates = parse_scripted_message(msg(text))
    assert [c.claim for c in candidates] == ["the levy is regressive"]


def test_malformed_hint_warns_and_skips_line():
    warnings = []
    text = "CLAIM +abc: bad hint\nCLAIM +1.5: too strong\nCLAIM +0.9: fine"
    candidates = parse_scripted_message(msg(text), warnings.append)
    assert [c.claim for c in candidates] == ["fine"]
    assert len(warnings) == 2


@pytest.mark.parametrize("line", ["CLAIM +0.5:", "CLAIM +0.5:   ", "CLAIM +0.5: \t"])
def test_blank_claim_text_warns_and_skips_line(line):
    warnings = []
    candidates = parse_scripted_message(msg(f"{line}\nCLAIM -0.2: kept"), warnings.append)
    assert [c.claim for c in candidates] == ["kept"]
    assert warnings == [f"blank claim text in line {line.strip()!r}"]


# The claim-line pattern whose lazy claim group, (.+?)\s*$, backtracked at
# every character: the oracle for every line whose claim text is not blank.
ORACLE_CLAIM_LINE = re.compile(r"^\s*CLAIM\s*([+\-−])\s*(\S+?)\s*:\s*(.+?)\s*$")
_PIECES = ["CLAIM", "CLAIM +0.5: ", " ", "\t", "\xa0", "\u3000", "\x1c", "\n", "+", "-", "−", ":", "0.5", "1", ".", "x", "é y"]


@given(st.lists(st.sampled_from(_PIECES), max_size=14).map("".join))
@example("CLAIM +0.5: a claim \xa0\u3000\t")
@example(" CLAIM − .25 :\u3000x : y \x1c CLAIM +1:z")
def test_claim_lines_parse_as_the_oracle_reads_them(text):
    expected = []
    for line in text.splitlines():
        oracle, match = ORACLE_CLAIM_LINE.match(line), CLAIM_LINE.match(line)
        if oracle is None or not oracle[3].strip():
            assert match is None or match[3] is None
            continue
        assert match is not None and match.groups() == oracle.groups()
        sign, hint, claim = oracle.groups()
        if re.fullmatch(r"\d*\.?\d+", hint) and float(hint) <= 1.0:
            expected.append((1 if sign == "+" else -1, float(hint), claim))
    candidates = parse_scripted_message(msg(text))
    assert [(c.polarity, c.strength_hint, c.claim) for c in candidates] == expected


@given(claim=st.text(), polarity=st.sampled_from([-1, 1]), strength=st.floats(0.0, 1.0))
@example(claim=" a claim \xa0", polarity=1, strength=0.5)
@example(claim="CLAIM +0.5: x : y", polarity=-1, strength=5e-324)
@example(claim="foo\u2028bar", polarity=1, strength=0.5)
@example(claim="foo\x1fbar", polarity=1, strength=1.0)
def test_every_accepted_claim_survives_its_own_quote(claim, polarity, strength):
    """A claim check_candidate accepts, judged into a store, is quoted by
    template_response and parsed back as the record's (claim, polarity,
    strength); check_candidate refuses only a blank claim or one holding a
    line boundary of str.splitlines."""
    try:
        check_candidate(claim, polarity, strength)
    except ContractError:
        assert not claim.strip() or claim.splitlines() != [claim]
        return
    candidate = CandidateArgument(claim=claim, polarity=polarity, role=Role.OPPONENT, strength_hint=strength)
    record, _ = judge(MemoryStore(), candidate, "t", None, 0.8, 0.5)
    text = template_response("argue for the proposition", RetrievalContext([record], 1, 0))
    parsed = parse_scripted_message(msg(text, author="self"))
    assert [(c.claim, c.polarity, c.strength_hint) for c in parsed] == [(record.claim, polarity, record.strength)]


def test_author_role_maps_to_record_role():
    assert parse_scripted_message(msg("CLAIM +0.1: x", author="self"))[0].role == Role.SELF
    assert parse_scripted_message(msg("CLAIM +0.1: x", author="seed_source"))[0].role == Role.SEED


def test_scripted_extractor_is_the_parser():
    extractor = ScriptedExtractor()
    assert len(extractor.extract("topic", msg("CLAIM +0.2: a\nCLAIM -0.3: b"))) == 2


def test_service_extractor_success_and_filtering():
    items = [
        {"claim": "good", "polarity": 1},
        {"claim": "", "polarity": 1},
        {"claim": "bad polarity", "polarity": 2},
        {"claim": "abc def", "polarity": True},  # True == 1, but a boolean is no polarity
        "not a dict",
    ]
    warnings = []
    extractor = ServiceExtractor("http://x.invalid", transport=lambda u, p, t: items)
    candidates = extractor.extract("topic", msg("anything"), warnings.append)
    assert [c.claim for c in candidates] == ["good"]
    assert warnings == [f"dropped malformed extraction item {item!r}" for item in items[1:]]


def test_service_extractor_drops_a_claim_holding_a_line_separator():
    items = [{"claim": "parks\u2028need lights", "polarity": 1}, {"claim": "kept", "polarity": -1}]
    warnings = []
    extractor = ServiceExtractor("http://x.invalid", transport=lambda u, p, t: items)
    assert [c.claim for c in extractor.extract("topic", msg("anything"), warnings.append)] == ["kept"]
    assert warnings == [f"dropped malformed extraction item {items[0]!r}"]


def test_service_extractor_exhausts_retries(monkeypatch):
    attempts = []

    def down(url, payload, timeout):
        attempts.append(1)
        raise OSError("no route")

    delays = []
    monkeypatch.setattr(judgement.time, "sleep", delays.append)
    extractor = ServiceExtractor("http://x.invalid", retries=1, transport=down)
    with pytest.raises(ExtractionBackendError):
        extractor.extract("topic", msg("anything"))
    assert len(attempts) == 2 and delays == [judgement.BACKOFF_BASE_S]


def test_service_extractor_rejects_non_list():
    extractor = ServiceExtractor("http://x.invalid", transport=lambda u, p, t: {"claims": []})
    with pytest.raises(ExtractionBackendError):
        extractor.extract("topic", msg("anything"))
