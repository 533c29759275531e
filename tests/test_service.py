"""The HTTP ports over real HTTP: ServiceScorer, ServiceExtractor and the
CLI against a threaded http.server on 127.0.0.1.  `requests` is made
unimportable, so every call goes through the standard-library transport."""

import json
import random
import re
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import yaml

from credence import judgement
from credence.cli import main
from credence.exceptions import ExtractionBackendError, ScoringBackendError
from credence.extraction import Message, ServiceExtractor, parse_scripted_message
from credence.judgement import BuiltinScorer, ServiceScorer
from credence.replay import EvidenceItem, ReplayCase, case_to_dict

TIMEOUT_S = 0.2
STALL_S = 0.3  # just past the timeout

PORTS = {
    "scorer": (ServiceScorer, lambda port: port.score("t", "a claim"), ScoringBackendError),
    "extractor": (
        ServiceExtractor,
        lambda port: port.extract("t", Message("CLAIM +0.5: a claim", "opponent", 0)),
        ExtractionBackendError,
    ),
}

# Transport failures, each an answer and the end of the error it raises.
FAILURES = {
    "status 500": (lambda body: (500, b'{"score": 0.25}'), "HTTP Error 500: Internal Server Error"),
    "stall": (lambda body: None, "timed out"),
    "not json": (lambda body: (200, b"not json"), "Expecting value: line 1 column 1 (char 0)"),
}


class Service(ThreadingHTTPServer):
    """A JSON service: each POST's Content-Type and decoded body are kept in
    `received`, and answer(body) gives the reply, (status, content), or
    None to send nothing for STALL_S."""

    def __init__(self, answer):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.answer = answer
        self.received = []
        self.released = threading.Event()

    @property
    def url(self):
        return "http://%s:%d/" % self.server_address


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.received.append((self.headers["Content-Type"], body))
        reply = self.server.answer(body)
        if reply is None:
            self.server.released.wait(STALL_S)
            return
        status, content = reply
        self.send_response(status)
        self.send_header("Content-Length", str(len(content)))
        self.end_headers()
        self.wfile.write(content)

    def log_message(self, format, *args):
        pass


@pytest.fixture(autouse=True)
def no_requests(monkeypatch):
    monkeypatch.setitem(sys.modules, "requests", None)


@pytest.fixture
def delays(monkeypatch):
    waits = []
    monkeypatch.setattr(judgement.time, "sleep", waits.append)
    return waits


@pytest.fixture
def serve():
    """Starts a Service per call; each is shut down and closed on teardown."""
    servers = []

    def start(answer):
        server = Service(answer)
        servers.append(server)
        threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True).start()  # quick to shut down
        return server

    yield start
    for server in servers:
        server.released.set()
        server.shutdown()
        server.server_close()


def reply_json(value):
    return 200, json.dumps(value).encode("utf-8")


def test_the_scorer_posts_json_and_reads_the_score(serve):
    server = serve(lambda body: reply_json({"score": 0.25}))
    assert ServiceScorer(server.url, timeout=TIMEOUT_S, retries=1).score("t", "a claim") == 0.25
    assert server.received == [("application/json", {"topic": "t", "claim": "a claim"})]


def test_the_extractor_posts_json_and_reads_the_claims(serve):
    server = serve(lambda body: reply_json([{"claim": "a claim", "polarity": -1}]))
    extractor = ServiceExtractor(server.url, timeout=TIMEOUT_S, retries=1)
    (candidate,) = extractor.extract("t", Message("CLAIM -0.5: a claim", "opponent", 0))
    assert (candidate.claim, candidate.polarity, candidate.strength_hint) == ("a claim", -1, None)
    assert server.received == [("application/json", {"topic": "t", "message_text": "CLAIM -0.5: a claim"})]


@pytest.mark.parametrize("failure", FAILURES)
@pytest.mark.parametrize("port", PORTS)
def test_a_transport_failure_is_retried_then_raises(serve, delays, port, failure):
    answer, message = FAILURES[failure]
    server = serve(answer)
    port_cls, call, error_cls = PORTS[port]
    start = time.monotonic()
    with pytest.raises(error_cls, match=f"after 2 attempts: .*{re.escape(message)}$") as raised:
        call(port_cls(server.url, timeout=TIMEOUT_S, retries=1))
    elapsed = time.monotonic() - start
    assert len(server.received) == 2 and delays == [judgement.BACKOFF_BASE_S]
    if failure == "stall":
        assert elapsed >= 2 * TIMEOUT_S, raised.value


@pytest.mark.parametrize("port", PORTS)
def test_a_refused_connection_is_retried_then_raises(delays, port):
    port_cls, call, error_cls = PORTS[port]
    with socket.socket() as bound:  # bound but not listening, so a connection is refused
        bound.bind(("127.0.0.1", 0))
        url = "http://%s:%d/" % bound.getsockname()
        with pytest.raises(error_cls, match="after 2 attempts: .*Connection refused"):
            call(port_cls(url, timeout=TIMEOUT_S, retries=1))
    assert delays == [judgement.BACKOFF_BASE_S]


@pytest.mark.parametrize("port", PORTS)
def test_a_json_reply_of_the_wrong_shape_is_not_retried(serve, delays, port):
    server = serve(lambda body: reply_json({"value": 0.4}))  # no score, and not a list
    port_cls, call, error_cls = PORTS[port]
    with pytest.raises(error_cls, match="malformed body|expected a list"):
        call(port_cls(server.url, timeout=TIMEOUT_S, retries=1))
    assert len(server.received) == 1 and delays == []


def write_yaml(path, payload):
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def tree_bytes(root):
    """Every file under root, by relative path."""
    return {path.relative_to(root).as_posix(): path.read_bytes() for path in root.rglob("*") if path.is_file()}


def test_replay_with_a_scoring_service_equals_the_builtin_scorer(serve, tmp_path, monkeypatch):
    monkeypatch.delenv("CREDENCE_SCORER_URL", raising=False)
    builtin = BuiltinScorer()
    server = serve(lambda body: reply_json({"score": builtin.score(body["topic"], body["claim"])}))
    rng = random.Random(5)
    cases = tmp_path / "cases.jsonl"
    with open(cases, "w") as handle:
        for i in range(30):  # no evidence item has a strength, so each is scored
            evidence = [EvidenceItem(f"case {i} item {j}", rng.choice([-1, 1])) for j in range(rng.randint(2, 4))]
            case = ReplayCase(f"p{i}", f"g{i % 4}", f"t{i % 3}", rng.randint(1, 6), rng.randint(1, 6), evidence=evidence)
            handle.write(json.dumps(case_to_dict(case)) + "\n")
    outputs = {}
    for name, ports in (
        ("service", {"scorer": "service", "scorer_url": server.url}),
        ("builtin", {"scorer": "builtin"}),
    ):
        config = write_yaml(tmp_path / f"{name}.yaml", {"ports": ports})
        assert main(["replay", "--config", config, "--cases", str(cases), "--out", str(tmp_path / name)]) == 0
        outputs[name] = tree_bytes(tmp_path / name)
        del outputs[name]["resolved_config.json"]  # it names the port
    assert outputs["service"] == outputs["builtin"]
    claims = [json.loads(line)["evidence"] for line in cases.read_text().splitlines()]
    assert len(server.received) == sum(map(len, claims))


def scripted_claims(payload):
    """What a scripted extraction service answers: the claims and polarities
    of the message's CLAIM lines."""
    message = Message(payload["message_text"], "opponent", 0)
    return [{"claim": c.claim, "polarity": c.polarity} for c in parse_scripted_message(message)]


def test_sweep_with_an_extraction_service_equals_the_transport_in_process(serve, tmp_path, monkeypatch):
    monkeypatch.delenv("CREDENCE_EXTRACTOR_URL", raising=False)
    server = serve(lambda body: reply_json(scripted_claims(body)))
    ports = {"extractor": "service", "extractor_url": server.url}
    config = write_yaml(tmp_path / "c.yaml", {"sweep": {"grid": [0.2, 0.8], "rounds": 2}, "ports": ports})
    assert main(["sweep", "--config", config, "--out", str(tmp_path / "http")]) == 0
    assert server.received
    monkeypatch.setattr(judgement, "requests_transport", lambda url, payload, timeout: scripted_claims(payload))
    assert main(["sweep", "--config", config, "--out", str(tmp_path / "in_process")]) == 0
    assert tree_bytes(tmp_path / "http") == tree_bytes(tmp_path / "in_process")
