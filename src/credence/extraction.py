"""Message parsing into candidate arguments.

Two extractors: a deterministic scripted-claim parser for offline runs,
and an HTTP adapter for a real extraction service. Polarity is always
proposition-relative and carried literally; nothing here infers
sentiment or touches the belief state.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Optional

from .core import Role
from .exceptions import ContractError, ExtractionBackendError
from .judgement import CandidateArgument, ServiceClient

# One claim per line: CLAIM <sign><strength-hint>: <text>.  The text group
# runs from its first non-blank character to its last, and is None when
# the text is blank.  It backtracks once, from the end of the line to its
# last non-blank character, so a match takes time linear in the line.
CLAIM_LINE = re.compile(r"^\s*CLAIM\s*([+\-−])\s*(\S+?)\s*:\s*(.*\S)?")
_DECIMAL = re.compile(r"^\d*\.?\d+$")

_ROLE_BY_AUTHOR = {
    "self": Role.SELF,
    "opponent": Role.OPPONENT,
    "seed_source": Role.SEED,
}


@dataclass
class Message:
    text: str
    author_role: str
    order: int

    def __post_init__(self):
        if self.author_role not in _ROLE_BY_AUTHOR:
            raise ContractError(f"unknown author_role {self.author_role!r}")


def role_for_author(author_role: str) -> Role:
    return _ROLE_BY_AUTHOR[author_role]


class ExtractorPort:
    """Extraction interface: (topic, message) -> candidate arguments."""

    def extract(self, topic: str, message: Message, on_warning: Optional[Callable[[str], None]] = None):
        raise NotImplementedError


def parse_scripted_message(message: Message, on_warning: Optional[Callable[[str], None]] = None) -> list[CandidateArgument]:
    """Parse CLAIM lines; non-matching lines are ignored.  A malformed
    strength hint or a blank claim text rejects only its own line, with a
    warning."""
    role = role_for_author(message.author_role)
    candidates = []
    for line in message.text.splitlines():
        match = CLAIM_LINE.match(line)
        if match is None:
            continue
        sign, hint_token, claim = match.groups()
        if not _DECIMAL.match(hint_token):
            if on_warning:
                on_warning(f"malformed strength hint {hint_token!r} in line {line.strip()!r}")
            continue
        hint = float(hint_token)
        if hint > 1.0:
            if on_warning:
                on_warning(f"strength hint {hint} outside [0, 1] in line {line.strip()!r}")
            continue
        if claim is None:
            if on_warning:
                on_warning(f"blank claim text in line {line.strip()!r}")
            continue
        polarity = 1 if sign == "+" else -1
        candidates.append(CandidateArgument(claim=claim, polarity=polarity, role=role, strength_hint=hint))
    return candidates


class ScriptedExtractor(ExtractorPort):
    def extract(self, topic: str, message: Message, on_warning=None):
        return parse_scripted_message(message, on_warning)


class ServiceExtractor(ServiceClient, ExtractorPort):
    """HTTP extractor: POST {topic, message_text}, expect a JSON array of
    {claim, polarity}. Invalid items are dropped with warnings; transport
    failure after the configured retries aborts the run."""

    def extract(self, topic: str, message: Message, on_warning=None):
        items = self.post({"topic": topic, "message_text": message.text}, ExtractionBackendError)
        if not isinstance(items, list):
            raise ExtractionBackendError(f"extraction service returned {type(items).__name__}, expected a list")

        role = role_for_author(message.author_role)
        candidates = []
        for item in items:
            try:  # a candidate's own checks: a non-empty claim, polarity -1 or +1
                candidates.append(CandidateArgument(claim=item["claim"], polarity=item["polarity"], role=role))
            except (TypeError, KeyError, AttributeError, ContractError):
                if on_warning:
                    on_warning(f"dropped malformed extraction item {item!r}")
        return candidates
