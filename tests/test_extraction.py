import pytest

from credence import judgement
from credence.core import Role
from credence.exceptions import ContractError, ExtractionBackendError
from credence.extraction import (
    Message,
    ScriptedExtractor,
    ServiceExtractor,
    parse_scripted_message,
)


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
