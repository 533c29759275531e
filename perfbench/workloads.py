"""The benchmark's workloads: seeded input generators, episode runners and
output checks.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned, in one process and one thread.  The
generator runs in the benchmark process during set-up and turns the
workload seed into the only inputs the program sees: CLAIM-grammar
messages, a case JSONL file, or the default configs.  Each episode then
runs in a fresh interpreter (``episode.py``), as a user of the CLI would,
so nothing cached by one episode or by set-up speeds up the next.  An
episode starts from the inputs and ends when every output is written and
checked.

One operation is one ``process_message`` call, one CLI command or one
output check; ``Tally`` counts them for ``attempted`` and ``failed``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import re
import string
import struct
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from credence import cli, engine, replay, simulation
from credence import config as config_mod
from credence.core import UAProfile
from credence.extraction import Message
from credence.replay import EvidenceItem, ReplayCase

from tracer import Patches

clock = time.perf_counter

# Input sizes.  "smoke" keeps every code path and check but runs in about
# a second; it exists for the benchmark's own test.
SIZES = {
    "full": {"fresh_rounds": 500, "echo_rounds": 1100, "replay_cases": 2000, "simulate_config": None},
    "smoke": {
        "fresh_rounds": 30,
        "echo_rounds": 60,
        "replay_cases": 150,
        "simulate_config": {
            "sweep": {"grid": [0.2, 0.6], "rounds": 4},
            "debate": {"rounds": 4, "trials": 1, "pairings": ["open/stubborn"]},
        },
    },
}

CLAIMS_PER_MESSAGE = 2
ECHO_POOL = 40  # base claims; each also has three one-word paraphrases
REPLAY_TRUTH = (0.15, 0.5)  # (uptake, anchoring) that produced the replay cases
REPLAY_GROUPS = 15
_VERIFIED = re.compile(r"L=(\S+) S=(\S+)")


class Tally:
    """Operations attempted and the messages of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


@dataclass
class Episode:
    tally: Tally
    workdir: Path
    latencies: list = field(default_factory=list)  # (start, end) of each message
    verify_events: int = 0
    verify_intervals: list = field(default_factory=list)  # (start, end) of each trace-verify
    traces: list = field(default_factory=list)
    digest: str = ""
    props: dict = field(default_factory=dict)

    def message(self, agent, message) -> None:
        start = clock()
        try:
            engine.process_message(agent, message)
            ok, what = True, ""
        except Exception as exc:  # a failed message is counted; the dialogue goes on
            ok, what = False, f"process_message order {message.order}: {exc!r}"
        self.latencies.append((start, clock()))
        self.tally.check(ok, what)

    def cli(self, argv, expect: int = 0) -> str:
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # reported as a failed command
                code = repr(exc)
        self.tally.check(
            code == expect,
            f"credence {' '.join(argv)} exited {code!r}, expected {expect}: {err.getvalue()[-300:]}",
        )
        return out.getvalue()

    def verify(self, path: Path):
        """``credence trace-verify`` on one trace; returns the (L, S) it printed."""
        events = path.read_bytes().count(b"\n")
        start = clock()
        out = self.cli(["trace-verify", path])
        self.verify_intervals.append((start, clock()))
        self.verify_events += events
        self.traces.append(path)
        match = _VERIFIED.search(out)
        self.tally.check(match is not None, f"trace-verify printed no L/S for {path.name}: {out!r}")
        return (float(match[1]), float(match[2])) if match else None


def digest_tree(root: Path) -> str:
    sha = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        sha.update(path.relative_to(root).as_posix().encode() + b"\0")
        sha.update(path.read_bytes())
    return sha.hexdigest()


def _vocabulary(rng: random.Random, size: int = 4000) -> list[str]:
    words = set()
    while len(words) < size:
        words.add("".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(4, 9))))
    return sorted(words)


def _timed(fn: Callable, sink: list) -> Callable:
    def timed(*args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append((start, clock()))

    return timed


def _read_csv(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


# ---------------------------------------------------------------------------
# dialogue_fresh and dialogue_echo


def generate_dialogue(rng: random.Random, rounds: int, echo: bool) -> dict:
    """Opponent messages of two CLAIM lines each, with hinted strengths.

    Fresh claims are 10-14 random words, so no two are near-duplicates.
    Echo claims come from a pool of base claims, as exact repeats or with
    one word swapped (cosine about 0.9, above the 0.80 threshold).
    """
    vocab = _vocabulary(rng)
    pool = [
        ([rng.choice(vocab) for _ in range(12)], rng.randrange(12), [rng.choice(vocab) for _ in range(3)], 1 - 2 * (i % 2))
        for i in range(ECHO_POOL)
    ]
    kinds = Counter()
    seen_texts, seen_bases = set(), set()
    messages = []
    for _ in range(rounds):
        lines = []
        for _ in range(CLAIMS_PER_MESSAGE):
            if echo:
                base = rng.randrange(len(pool))
                words, slot, alternatives, polarity = pool[base]
                if rng.random() < 0.5:
                    words = words[:slot] + [rng.choice(alternatives)] + words[slot + 1 :]
                text = " ".join(words)
            else:
                base = None
                text = " ".join(rng.choice(vocab) for _ in range(rng.randint(10, 14)))
                polarity = rng.choice((1, -1))
            if text in seen_texts:
                kinds["repeat"] += 1
            elif base is not None and base in seen_bases:
                kinds["paraphrase"] += 1
            else:
                kinds["novel"] += 1
            seen_texts.add(text)
            seen_bases.add(base)
            lines.append(f"CLAIM {'+' if polarity > 0 else '-'}{rng.uniform(0.05, 0.95):.2f}: {text}")
        messages.append("\n".join(lines))
    claims = rounds * CLAIMS_PER_MESSAGE
    return {
        "messages": messages,
        "target": round(rng.uniform(0.3, 0.7), 3),
        "seed_rng": rng.randrange(2**31),
        "props": {
            "rounds": rounds,
            "messages": 2 * rounds,
            "opponent_claims": claims,
            "novel_share": kinds["novel"] / claims,
            "repeat_share": kinds["repeat"] / claims,
            "paraphrase_share": kinds["paraphrase"] / claims,
        },
    }


@dataclass
class Dialogue:
    inputs: dict
    section: dict  # default sweep config: topic, (u, a), thresholds, k
    corpus: list


def prepare_dialogue(inputs: dict) -> Dialogue:
    corpus = simulation.load_scripted_claims(config_mod.bundled_text("seeds.txt"))
    return Dialogue(inputs=inputs, section=config_mod.load_config()["sweep"], corpus=corpus)


def run_dialogue(dialogue: Dialogue, ep: Episode) -> None:
    """Seed one agent, then per round: the opponent message, then the
    agent's own turn fed back through its own extract-judge path.  The
    trace must verify to the agent's final L bitwise."""
    section, inputs = dialogue.section, dialogue.inputs
    profile = UAProfile(uptake=section["fixed_u"], anchoring=section["fixed_a"])
    agent = simulation.make_agent("bench", section["topic"], profile, section["theta"], section["theta_self"], section["k"])
    simulation.seed_agent(
        agent, dialogue.corpus, section["seeds_per_side"], inputs["target"], rng=random.Random(inputs["seed_rng"])
    )
    for text in inputs["messages"]:
        ep.message(agent, Message(text=text, author_role="opponent", order=agent.next_order()))
        try:
            reply, _ = engine.compose_response(agent)
        except Exception as exc:  # counted as a failed operation; the dialogue goes on
            ep.tally.check(False, f"compose_response: {exc!r}")
            continue
        ep.message(agent, reply)
    path = ep.workdir / "dialogue.jsonl"
    engine.write_trace(path, agent.trace)
    verified = ep.verify(path)
    final = agent.belief.log_odds
    ep.tally.check(
        verified is not None and verified[0] == final,
        f"trace-verify L {verified and verified[0]!r} != agent L {final!r}",
    )
    ep.digest = hashlib.sha256(path.read_bytes() + repr(final).encode()).hexdigest()
    active = sum(1 for r in agent.memory.records if r.active)
    ep.props = {
        "final_active": active,
        "final_archived": len(agent.memory.records) - active,
        "trace_events": len(agent.trace),
        "trace_bytes": path.stat().st_size,
    }


# ---------------------------------------------------------------------------
# simulate


def generate_simulate(rng: random.Random, overrides, workdir: Path) -> dict:
    """The default sweep and debate configs, rng seed included, so every
    seed runs the same simulations (the seed-scale search stops early on
    some rng seeds, which would make the cost seed-dependent).  The smoke
    size writes a small override file instead."""
    config_args = []
    if overrides is not None:
        path = workdir / "simulate.json"  # JSON is valid YAML
        path.write_text(json.dumps(overrides))
        config_args = ["--config", str(path)]
    return {"config_args": config_args, "props": {}}


@dataclass
class Simulate:
    inputs: dict
    expected_traces: int
    props: dict


def prepare_simulate(inputs: dict) -> Simulate:
    args = inputs["config_args"]
    cfg = config_mod.load_config(args[1] if args else None)
    sweep, debate = cfg["sweep"], cfg["debate"]
    expected = 2 * len(sweep["grid"]) + 2 * len(debate["pairings"]) * debate["trials"]
    props = {
        "sweep_agents": 2 * len(sweep["grid"]),
        "sweep_rounds": sweep["rounds"],
        "debates": len(debate["pairings"]) * debate["trials"],
        "debate_rounds": debate["rounds"],
        "traces": expected,
    }
    return Simulate(inputs=inputs, expected_traces=expected, props=props)


def run_simulate(sim: Simulate, ep: Episode) -> None:
    """``credence sweep`` and ``credence debate``, then ``trace-verify`` on
    every trace they wrote.  Each sweep trace must verify to the final
    stance the sweep reported."""
    patches = Patches()
    patches.wrap(engine, "process_message", lambda f: _timed(f, ep.latencies))
    try:
        ep.cli(["sweep", "--out", ep.workdir / "sweep", *sim.inputs["config_args"]])
        ep.cli(["debate", "--out", ep.workdir / "debate", *sim.inputs["config_args"]])
    finally:
        patches.restore()
    traces = sorted(ep.workdir.glob("*/traces/*.jsonl"))
    ep.tally.check(len(traces) == sim.expected_traces, f"{len(traces)} traces, expected {sim.expected_traces}")
    finals = {
        (row["param"], row["value"]): float(row["final_stance"])
        for row in _read_csv(ep.workdir / "sweep" / "sweep_finals.csv")
    }
    for path in traces:
        verified = ep.verify(path)
        if path.name.startswith("sweep_"):
            param, value = path.stem.split("_", 2)[1:]
            reported = finals.get((param, value))
            ep.tally.check(
                verified is not None and verified[1] == reported,
                f"{path.name}: trace-verify S {verified and verified[1]!r} != sweep final {reported!r}",
            )
    ep.digest = digest_tree(ep.workdir)
    ep.props = {**sim.props, "trace_events": ep.verify_events, "messages": len(ep.latencies)}


# ---------------------------------------------------------------------------
# replay


def generate_replay(rng: random.Random, n_cases: int, workdir: Path) -> dict:
    """Noiseless cases shaped like acceptance criterion 09: 3-9 pre-extracted
    items of never-repeated random words, 15 groups, and a final stance
    produced by ``replay_case`` under (u, a) = (0.15, 0.5)."""
    truth = UAProfile(*REPLAY_TRUTH)
    vocab = _vocabulary(rng)
    path = workdir / "cases.jsonl"
    finals = []
    items = 0
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(n_cases):
            evidence = [
                EvidenceItem(
                    claim=" ".join(rng.choice(vocab) for _ in range(rng.randint(6, 10))),
                    polarity=rng.choice((-1, 1)),
                    strength=round(rng.uniform(0.1, 0.95), 3),
                )
                for _ in range(rng.randint(3, 9))
            ]
            items += len(evidence)
            case = ReplayCase(
                participant=f"p{i}",
                group=f"g{i % REPLAY_GROUPS}",
                topic="synthetic",
                initial_likert=rng.randint(1, 6),
                final_stance=0.0,
                evidence=evidence,
            )
            case.final_stance = replay.replay_case(case, truth)
            finals.append(case.final_stance)
            row = {
                "participant": case.participant,
                "group": case.group,
                "topic": case.topic,
                "initial_likert": case.initial_likert,
                "final_stance": case.final_stance,
                "evidence": [{"claim": e.claim, "polarity": e.polarity, "strength": e.strength} for e in evidence],
            }
            handle.write(json.dumps(row) + "\n")
    return {
        "case_file": str(path),
        "finals": finals,
        "props": {"cases": n_cases, "items": items, "groups": REPLAY_GROUPS, "items_per_case": items / n_cases},
    }


def run_replay(inputs: dict, ep: Episode) -> None:
    """``credence replay`` over the cases.  It must recover (0.15, 0.5) in
    every fold with zero held-out error, and report each case's held-out
    prediction equal, bitwise, to the final stance the case was made
    from.  A "message" here is one case's evidence stream: the latency of
    each ``accepted_records`` call (one per case) inside the report."""
    out = ep.workdir / "replay"
    patches = Patches()
    patches.wrap(replay, "accepted_records", lambda f: _timed(f, ep.latencies))
    try:
        ep.cli(["replay", "--cases", inputs["case_file"], "--out", out])
    finally:
        patches.restore()
    folds = _read_csv(out / "folds.csv")
    ep.tally.check(
        bool(folds)
        and all(
            (float(row["u"]), float(row["a"]), float(row["heldout_rmse"])) == (*REPLAY_TRUTH, 0.0)
            for row in folds
        ),
        f"replay folds did not recover {REPLAY_TRUTH}: {folds}",
    )
    predictions = [float(row["be"]) for row in _read_csv(out / "predictions.csv")]
    finals = inputs["finals"]
    ep.tally.check(len(predictions) == len(finals), f"{len(predictions)} predictions for {len(finals)} cases")
    for index, (reported, final) in enumerate(zip(predictions, finals)):
        ep.tally.check(reported == final, f"case {index}: held-out prediction {reported!r} != final {final!r}")
    ep.digest = digest_tree(out)
    ep.props = {"folds": len(folds), "cases_timed": len(ep.latencies)}


# ---------------------------------------------------------------------------


def tamper_check(trace: Path, rng: random.Random, workdir: Path, ep: Episode) -> None:
    """Change one stored contribution of a record that is still active at the
    end of the trace (so a later update depends on it); trace-verify must
    then exit 3."""
    rows = [json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines() if line.strip()]
    last_stored, active = {}, {}
    for index, row in enumerate(rows):
        payload = row["payload"]
        if row["kind"] == "stored":
            last_stored[payload["id"]] = index
            active[payload["id"]] = payload["active"]
        elif row["kind"] == "resolved" and payload.get("archived_id") is not None:
            active[payload["archived_id"]] = False
    candidates = sorted(
        index for record_id, index in last_stored.items() if active[record_id] and rows[index]["payload"].get("contribution")
    )
    if not ep.tally.check(bool(candidates), f"no active stored record to tamper with in {trace.name}"):
        return
    payload = rows[rng.choice(candidates)]["payload"]
    (bits,) = struct.unpack("<Q", struct.pack("<d", payload["contribution"]))
    (payload["contribution"],) = struct.unpack("<d", struct.pack("<Q", bits ^ (1 << 40)))
    tampered = workdir / f"tampered_{trace.name}"
    tampered.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    ep.cli(["trace-verify", tampered], expect=3)


@dataclass(frozen=True)
class Workload:
    generate: Callable  # benchmark process: (rng, size, workdir) -> JSON inputs with "props"
    prepare: Callable  # episode process, before timing: inputs -> prepared inputs
    episode: Callable  # episode process, timed: (prepared, Episode) -> None
    writes_traces: bool


WORKLOADS = {
    "dialogue_fresh": Workload(
        lambda rng, size, workdir: generate_dialogue(rng, SIZES[size]["fresh_rounds"], echo=False),
        prepare_dialogue,
        run_dialogue,
        True,
    ),
    "dialogue_echo": Workload(
        lambda rng, size, workdir: generate_dialogue(rng, SIZES[size]["echo_rounds"], echo=True),
        prepare_dialogue,
        run_dialogue,
        True,
    ),
    "simulate": Workload(
        lambda rng, size, workdir: generate_simulate(rng, SIZES[size]["simulate_config"], workdir),
        prepare_simulate,
        run_simulate,
        True,
    ),
    "replay": Workload(
        lambda rng, size, workdir: generate_replay(rng, SIZES[size]["replay_cases"], workdir),
        lambda inputs: inputs,
        run_replay,
        False,
    ),
}
