import builtins
import json
import math
import os
import random
import re
import struct
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
import yaml

import credence
from credence import cli, engine, judgement, simulation
from credence.cli import main
from credence.config import DEFAULTS, bundled_text
from credence.exceptions import TraceVerificationError
from credence.replay import EvidenceItem, ReplayCase, case_to_dict


def write_yaml(path, payload):
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def small_sweep_config(tmp_path, **overrides):
    section = {"grid": [0.2, 0.8], "rounds": 3, **overrides}
    return write_yaml(tmp_path / "config.yaml", {"sweep": section})


def write_cases(path, n=30, seed=3):
    rng = random.Random(seed)
    with open(path, "w") as handle:
        for i in range(n):
            evidence = [
                EvidenceItem(
                    claim=f"case {i} item {j} {rng.random()}",
                    polarity=rng.choice([-1, 1]),
                    strength=round(rng.uniform(0.1, 0.9), 3),
                )
                for j in range(rng.randint(2, 5))
            ]
            case = ReplayCase(
                participant=f"p{i}",
                group=f"g{i % 8}",
                topic=f"t{i % 3}",
                initial_likert=rng.randint(1, 6),
                final_likert=rng.randint(1, 6),
                evidence=evidence,
            )
            handle.write(json.dumps(case_to_dict(case)) + "\n")
    return str(path)


def test_sweep_writes_outputs_and_snapshot(tmp_path):
    out = tmp_path / "out"
    rc = main(["sweep", "--config", small_sweep_config(tmp_path), "--out", str(out)])
    assert rc == 0
    assert (out / "resolved_config.json").exists()
    assert (out / "sweep_finals.csv").read_text().count("\n") == 5  # header + 2 values x 2 params
    assert list((out / "traces").glob("*.jsonl"))


def test_sweep_is_deterministic(tmp_path):
    config = small_sweep_config(tmp_path)
    main(["sweep", "--config", config, "--out", str(tmp_path / "a")])
    main(["sweep", "--config", config, "--out", str(tmp_path / "b")])
    for name in ("sweep_finals.csv", "sweep_trajectories.csv", "resolved_config.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_sweep_empty_grid_is_validation_error(tmp_path):
    rc = main(["sweep", "--config", small_sweep_config(tmp_path, grid=[]), "--out", str(tmp_path / "o")])
    assert rc == 1


@pytest.mark.parametrize(
    "payload",
    [
        {"sweep": {"gird": [0.2]}},
        {"engine": {"theta": 0.5}},  # a removed section
        {"ports": {"generator": "template"}},  # a removed key
        {"ports": {"scorer": "table"}},  # a removed value
    ],
    ids=["sweep.gird", "engine.theta", "ports.generator", "ports.scorer-table"],
)
def test_unknown_config_key_is_validation_error(tmp_path, capsys, payload):
    config = write_yaml(tmp_path / "c.yaml", payload)
    assert main(["sweep", "--config", config, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def _leaf_keys(tree, path=""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaf_keys(value, f"{path}{key}.")
        else:
            yield f"{path}{key}", value


def _wrong_type(default):
    if isinstance(default, list):
        return [_wrong_type(default[0])]
    if isinstance(default, float):
        return "0.5"
    if isinstance(default, int):
        return 2.5
    return 7  # for a string or null default


LEAVES = dict(_leaf_keys(DEFAULTS))


@pytest.mark.parametrize("key", sorted(LEAVES))
def test_wrong_typed_config_value_is_validation_error(tmp_path, capsys, key):
    section, leaf = key.split(".")
    config = write_yaml(tmp_path / "c.yaml", {section: {leaf: _wrong_type(LEAVES[key])}})
    out = tmp_path / "o"
    assert main(["sweep", "--config", config, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: config key {key!r} must be")
    assert not out.exists()


def test_readme_config_table_names_every_key():
    """The README config reference names exactly the leaf keys of DEFAULTS."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = re.search(r"(?m)(^\|.*\n)+", readme.split("### Config reference", 1)[1]).group(0)
    named, section = set(), None
    for row in table.splitlines():
        head = row.split("|")[1]
        if head.strip().startswith("**"):
            section = re.search(r"`(\w+)`", head).group(1)
        else:
            named.update(f"{section}.{key}" for key in re.findall(r"`(\w+)`", head))
    assert named == set(LEAVES)


# id -> (command, config, start of the error message)
FAILING_RUNS = {
    "replay-zero-folds": ("replay", {"replay": {"folds": 0}}, "folds must be an integer >= 1"),
    "debate-unknown-pairing": ("debate", {"debate": {"pairings": ["open/nope"]}}, "unknown pairing"),
    "debate-no-pairings": ("debate", {"debate": {"pairings": []}}, "debate pairings must be a non-empty list"),
    # Only an empty file or a null root means no overrides; any other root
    # that is not a mapping, a falsy one included, is rejected.
    "sweep-root-empty-list": ("sweep", [], "config root in"),
    "sweep-root-false": ("sweep", False, "config root in"),
    "sweep-root-zero": ("sweep", 0, "config root in"),
    "sweep-root-empty-string": ("sweep", "", "config root in"),
    "sweep-k-string": ("sweep", {"sweep": {"k": "5"}}, "config key 'sweep.k' must be an integer"),
    "sweep-theta-bool": ("sweep", {"sweep": {"theta": True}}, "config key 'sweep.theta' must be a finite number"),
    "sweep-rounds-bool": ("sweep", {"sweep": {"rounds": True}}, "config key 'sweep.rounds' must be an integer"),
    "sweep-grid-null-item": ("sweep", {"sweep": {"grid": [0.2, None]}}, "config key 'sweep.grid' must be a list"),
    "sweep-section-list": ("sweep", {"sweep": [1]}, "config key 'sweep' must be a mapping"),
    "sweep-theta-above-one": ("sweep", {"sweep": {"theta": 2.5}}, "theta must be in [0, 1]"),
    "sweep-theta-nan": ("sweep", {"sweep": {"theta": float("nan")}}, "config key 'sweep.theta' must be a finite number"),
    "sweep-k-zero": ("sweep", {"sweep": {"k": 0}}, "k must be >= 1"),
    "sweep-negative-grid-value": ("sweep", {"sweep": {"grid": [0.2, -0.1]}}, "sweep grid [0.2, -0.1] must be"),
    # Each grid value and each pairing names its trace files, so a repeat
    # would overwrite them.
    "sweep-grid-repeated-value": ("sweep", {"sweep": {"grid": [0.2, 0.2]}}, "sweep grid [0.2, 0.2] must hold distinct values"),
    "sweep-grid-equal-int-and-float": ("sweep", {"sweep": {"grid": [1, 1.0]}}, "sweep grid [1, 1.0] must hold distinct values"),
    "debate-repeated-pairing": (
        "debate",
        {"debate": {"pairings": ["open/open", "open/open"]}},
        "debate pairings ['open/open', 'open/open'] must be distinct",
    ),
    "sweep-missing-seed-file": ("sweep", {"sweep": {"seed_file": "no-such-seed-file.txt"}}, "[Errno 2]"),
    "debate-one-target": ("debate", {"debate": {"targets": [0.5]}}, "a debate needs two seed targets"),
    "debate-target-out-of-range": ("debate", {"debate": {"targets": [1.5, -0.5]}}, "seed target 1.5 outside"),
    "debate-seed-pool-too-small": ("debate", {"debate": {"seeds_per_side": 15}}, "seed corpus provides 14 usable claims, need 15"),
    "sweep-script-too-short": ("sweep", {"sweep": {"rounds": 40}}, "opponent script has 15 lines, need one per round (40)"),
    "debate-theta-self-negative": ("debate", {"debate": {"theta_self": -0.1}}, "theta_self must be in [0, 1]"),
    "replay-theta-above-one": ("replay", {"replay": {"theta": 1.5}}, "replay theta must be in [0, 1]"),
    "replay-clip-one": ("replay", {"replay": {"clip": 1.0}}, "stance clip bound must be in [0, 1)"),
    "replay-eps-weak-negative": ("replay", {"replay": {"eps_weak": -1}}, "eps_weak must be >= 0"),
    "replay-u-grid-below-minus-one": ("replay", {"replay": {"u_grid": [-2.0, 0.1]}}, "u grid [-2.0, 0.1] must be"),
    "replay-u-grid-negative": ("replay", {"replay": {"u_grid": [-0.5, 0.1]}}, "u grid [-0.5, 0.1] must be"),
    "replay-a-grid-negative": ("replay", {"replay": {"a_grid": [-0.5, 0.1]}}, "a grid [-0.5, 0.1] must be"),
    "ports-service-without-url": ("sweep", {"ports": {"scorer": "service"}}, "ports.scorer=service needs"),
    # A URL that no port reads is refused, not ignored.
    "ports-extractor-url-with-scripted": (
        "sweep",
        {"ports": {"extractor_url": "http://claims.invalid"}},
        "ports.extractor_url is set, but ports.extractor=scripted reads no URL",
    ),
    "ports-scorer-url-with-builtin": (
        "debate",
        {"ports": {"scorer_url": "http://scores.invalid"}},
        "ports.scorer_url is set, but ports.scorer=builtin reads no URL",
    ),
    "ports-negative-retries": (
        "sweep",
        {"ports": {"scorer": "service", "scorer_url": "http://x.invalid", "retries": -1}},
        "service timeout must be > 0 and retries >= 0",
    ),
}


@pytest.mark.parametrize("command, payload, message", list(FAILING_RUNS.values()), ids=list(FAILING_RUNS))
def test_failed_command_writes_nothing(tmp_path, monkeypatch, capsys, command, payload, message):
    monkeypatch.delenv("CREDENCE_SCORER_URL", raising=False)
    cases = {"case_file": write_cases(tmp_path / "cases.jsonl", n=7)}  # read by the replay rows
    if isinstance(payload, dict):
        payload = {**payload, "replay": {**cases, **payload.get("replay", {})}}
    config = write_yaml(tmp_path / "c.yaml", payload)
    out = tmp_path / "o"
    assert main([command, "--config", config, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("configured", [None, "http://configured.invalid"])
def test_snapshot_records_the_url_a_service_port_used(tmp_path, monkeypatch, configured):
    """CREDENCE_SCORER_URL overrides ports.scorer_url, and the snapshot
    holds the URL the port used, so the snapshot alone reruns the command.
    Every bundled claim carries a strength hint, so the scorer is never
    called."""
    calls = []
    monkeypatch.setattr(judgement, "requests_transport", lambda url, payload, timeout: calls.append(url))
    monkeypatch.setenv("CREDENCE_SCORER_URL", "http://from-env.invalid")
    ports = {"scorer": "service", "scorer_url": configured}
    config = write_yaml(tmp_path / "c.yaml", {"sweep": {"grid": [0.2], "rounds": 1}, "ports": ports})
    out = tmp_path / "o"
    assert main(["sweep", "--config", config, "--out", str(out)]) == 0
    snapshot = json.loads((out / "resolved_config.json").read_text())
    assert snapshot["ports"]["scorer_url"] == "http://from-env.invalid"
    assert calls == []
    monkeypatch.delenv("CREDENCE_SCORER_URL")
    rerun = tmp_path / "rerun"
    assert main(["sweep", "--config", str(out / "resolved_config.json"), "--out", str(rerun)]) == 0
    assert tree_bytes(rerun) == tree_bytes(out)


def test_debate_outputs(tmp_path):
    config = write_yaml(tmp_path / "c.yaml", {"debate": {"rounds": 2, "trials": 1}})
    out = tmp_path / "out"
    assert main(["debate", "--config", config, "--out", str(out)]) == 0
    convergence = (out / "convergence.csv").read_text().strip().splitlines()
    assert len(convergence) == 5  # header + 4 default pairings
    assert (out / "debate_metrics.csv").exists()
    assert (out / "series.csv").exists()


def test_debate_zero_trials_is_validation_error(tmp_path):
    config = write_yaml(tmp_path / "c.yaml", {"debate": {"trials": 0, "rounds": 2}})
    assert main(["debate", "--config", config, "--out", str(tmp_path / "o")]) == 1


def test_debate_unknown_pairing_is_validation_error(tmp_path):
    config = write_yaml(tmp_path / "c.yaml", {"debate": {"pairings": ["open/wat"], "rounds": 2, "trials": 1}})
    assert main(["debate", "--config", config, "--out", str(tmp_path / "o")]) == 1


def test_replay_outputs(tmp_path):
    cases = write_cases(tmp_path / "cases.jsonl")
    out = tmp_path / "out"
    assert main(["replay", "--cases", cases, "--out", str(out)]) == 0
    for name in ("folds.csv", "surface.csv", "predictions.csv", "subgroups.csv"):
        assert (out / name).exists()
    subgroups = (out / "subgroups.csv").read_text().splitlines()
    assert subgroups[1].startswith("all,30,")


def test_replay_key_topic(tmp_path):
    cases = write_cases(tmp_path / "cases.jsonl")
    out = tmp_path / "out"
    assert main(["replay", "--cases", cases, "--key", "topic", "--out", str(out)]) == 0
    snapshot = json.loads((out / "resolved_config.json").read_text())
    assert snapshot["replay"]["key"] == "topic"
    predictions = (out / "predictions.csv").read_text().splitlines()[1:]
    folds_by_topic = {}
    for line in predictions:
        fields = line.split(",")
        folds_by_topic.setdefault(fields[2], set()).add(fields[3])
    assert all(len(v) == 1 for v in folds_by_topic.values())


def tree_bytes(root):
    """Every file under root, by relative path."""
    return {path.relative_to(root).as_posix(): path.read_bytes() for path in root.rglob("*") if path.is_file()}


@pytest.mark.parametrize(
    "command",
    [
        ["debate", "--config", "{config}"],
        ["replay", "--cases", "{cases}", "--key", "topic"],
    ],
    ids=["debate", "replay-key-topic"],
)
def test_command_is_deterministic(tmp_path, command):
    paths = {
        "config": write_yaml(tmp_path / "c.yaml", {"debate": {"rounds": 3, "trials": 2}}),
        "cases": write_cases(tmp_path / "cases.jsonl"),
    }
    args = [arg.format(**paths) for arg in command]
    for name in ("a", "b"):
        assert main([*args, "--out", str(tmp_path / name)]) == 0
    first = tree_bytes(tmp_path / "a")
    assert "resolved_config.json" in first and len(first) > 2
    assert first == tree_bytes(tmp_path / "b")


def test_replay_strict_rejects_bad_lines(tmp_path):
    cases = write_cases(tmp_path / "cases.jsonl", n=5)
    with open(cases) as handle:
        row = json.loads(handle.readline())
    row["evidence"][0]["polarity"] = None  # a line error, not a crash
    with open(cases, "a") as handle:
        handle.write("garbage\n")
        handle.write(json.dumps(row) + "\n")
    assert main(["replay", "--cases", cases, "--out", str(tmp_path / "a")]) == 0
    assert main(["replay", "--cases", cases, "--strict", "--out", str(tmp_path / "b")]) == 1


def test_replay_reports_a_case_line_that_is_not_utf8(tmp_path, capsys):
    """Each case line is decoded on its own: a line with a byte that is not
    UTF-8 is a malformed line, and the others still load."""
    cases = Path(write_cases(tmp_path / "cases.jsonl", n=5))
    lines = cases.read_bytes().splitlines()
    lines[2] = lines[2].replace(b'"p2"', b'"p\xff"')
    cases.write_bytes(b"\n".join(lines) + b"\n")
    assert main(["replay", "--cases", str(cases), "--out", str(tmp_path / "a")]) == 0
    err = capsys.readouterr().err
    assert err.startswith(f"{cases}:3: 'utf-8' codec can't decode byte 0xff")
    participants = [line.split(",")[0] for line in (tmp_path / "a" / "predictions.csv").read_text().splitlines()[1:]]
    assert participants == ["p0", "p1", "p3", "p4"]
    assert main(["replay", "--cases", str(cases), "--strict", "--out", str(tmp_path / "b")]) == 1
    err = capsys.readouterr().err
    assert "error: 1 malformed case lines (strict mode)" in err and "Traceback" not in err


def test_replay_reports_a_case_line_nested_too_deep(tmp_path, capsys):
    """A case line nested thousands deep makes json raise RecursionError:
    it is a malformed line, and the valid case before it still loads."""
    cases = Path(write_cases(tmp_path / "cases.jsonl", n=1))
    with open(cases, "a") as handle:
        handle.write("[" * 3000 + "\n")
    assert main(["replay", "--cases", str(cases), "--out", str(tmp_path / "a")]) == 0
    assert capsys.readouterr().err.startswith(f"{cases}:2: maximum recursion depth exceeded")
    participants = [line.split(",")[0] for line in (tmp_path / "a" / "predictions.csv").read_text().splitlines()[1:]]
    assert participants == ["p0"]
    assert main(["replay", "--cases", str(cases), "--strict", "--out", str(tmp_path / "b")]) == 1
    err = capsys.readouterr().err
    assert "error: 1 malformed case lines (strict mode)" in err and "Traceback" not in err


# A seed corpus line that the parser rejects -> the warning it gives.
SEED_LINE_FAULTS = {
    "bad-hint": ("CLAIM +0.88x: open budgets work", "malformed strength hint '0.88x'"),
    "hint-above-one": ("CLAIM +1.90: open budgets work", "strength hint 1.9 outside [0, 1]"),
    "blank-text": ("CLAIM -0.50:   ", "blank claim text"),
}


@pytest.mark.parametrize("line, warning", list(SEED_LINE_FAULTS.values()), ids=list(SEED_LINE_FAULTS))
def test_a_malformed_seed_corpus_line_is_a_validation_error(tmp_path, capsys, line, warning):
    """A seed_file line that does not parse stops sweep and debate with the
    line quoted, instead of seeding from the other lines."""
    seeds = tmp_path / "seeds.txt"
    seeds.write_text(bundled_text("seeds.txt") + line + "\n", encoding="utf-8")
    for command in ("sweep", "debate"):
        config = write_yaml(tmp_path / f"{command}.yaml", {command: {"seed_file": str(seeds)}})
        out = tmp_path / command
        assert main([command, "--config", config, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: seed corpus: {warning} in line {line.strip()!r}")
        assert not out.exists()


@pytest.mark.parametrize("key", ["config", "seed_file", "opponent_file"])
def test_an_input_file_that_is_not_utf8_is_a_validation_error(tmp_path, capsys, key):
    bad = tmp_path / "bad.txt"
    if key == "config":
        bad.write_bytes(b"sweep:\n  topic: caf\xff\n")
        config = str(bad)
    else:
        bad.write_bytes(b"CLAIM +0.5: caf\xff\n")
        config = write_yaml(tmp_path / "c.yaml", {"sweep": {key: str(bad)}})
    assert main(["sweep", "--config", config, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    named = f"config {bad}" if key == "config" else str(bad)
    assert err.startswith(f"error: cannot read {named}: 'utf-8' codec can't decode byte 0xff")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("folds", [0, "3", 2.5])
def test_replay_bad_folds_is_validation_error(tmp_path, capsys, folds):
    cases = write_cases(tmp_path / "cases.jsonl", n=5)
    config = write_yaml(tmp_path / "c.yaml", {"replay": {"folds": folds}})
    assert main(["replay", "--config", config, "--cases", cases, "--out", str(tmp_path / "o")]) == 1
    # A wrong type is rejected at load, a wrong value where the folds are dealt.
    expected = "folds must be an integer >= 1" if folds == 0 else "config key 'replay.folds' must be an integer"
    assert capsys.readouterr().err.startswith(f"error: {expected}")


def test_replay_unreachable_scoring_service_is_runtime_error(tmp_path, monkeypatch, capsys):
    attempts = []

    def down(url, payload, timeout):
        attempts.append(url)
        raise OSError("connection refused")

    delays = []
    monkeypatch.setattr(judgement, "requests_transport", down)
    monkeypatch.setattr(judgement.time, "sleep", delays.append)
    monkeypatch.delenv("CREDENCE_SCORER_URL", raising=False)
    cases = tmp_path / "cases.jsonl"
    row = case_to_dict(ReplayCase("p", "g", "t", 3, 4, evidence=[EvidenceItem(claim="unscored", polarity=1)]))
    cases.write_text(json.dumps(row) + "\n")
    config = write_yaml(tmp_path / "c.yaml", {"ports": {"scorer": "service", "scorer_url": "http://scores.invalid"}})
    assert main(["replay", "--config", config, "--cases", str(cases), "--out", str(tmp_path / "o")]) == 2
    assert attempts == ["http://scores.invalid"] * 3  # the default 2 retries
    assert delays == [judgement.BACKOFF_BASE_S, 2 * judgement.BACKOFF_BASE_S]
    assert "runtime error" in capsys.readouterr().err


def test_sweep_unreachable_extraction_service_is_runtime_error(tmp_path, monkeypatch, capsys):
    attempts = []

    def down(url, payload, timeout):
        attempts.append(url)
        raise OSError("connection refused")

    delays = []
    monkeypatch.setattr(judgement, "requests_transport", down)
    monkeypatch.setattr(judgement.time, "sleep", delays.append)
    monkeypatch.delenv("CREDENCE_EXTRACTOR_URL", raising=False)
    config = write_yaml(
        tmp_path / "c.yaml",
        {"sweep": {"grid": [0.2], "rounds": 1}, "ports": {"extractor": "service", "extractor_url": "http://claims.invalid"}},
    )
    assert main(["sweep", "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert attempts == ["http://claims.invalid"] * 3  # the default 2 retries
    assert delays == [judgement.BACKOFF_BASE_S, 2 * judgement.BACKOFF_BASE_S]
    assert "runtime error" in capsys.readouterr().err


def test_replay_empty_file_is_error(tmp_path):
    empty = tmp_path / "cases.jsonl"
    empty.write_text("")
    assert main(["replay", "--cases", str(empty), "--out", str(tmp_path / "o")]) == 1


def test_replay_missing_case_file_is_validation_error(tmp_path):
    assert main(["replay", "--out", str(tmp_path / "o")]) == 1


def test_trace_verify_roundtrip_and_tamper(tmp_path):
    out = tmp_path / "out"
    main(["sweep", "--config", small_sweep_config(tmp_path), "--out", str(out)])
    trace = next((out / "traces").glob("*.jsonl"))
    assert main(["trace-verify", str(trace)]) == 0

    lines = trace.read_text().splitlines()
    for i, line in enumerate(lines):
        row = json.loads(line)
        if row["kind"] == "stored":
            row["payload"]["contribution"] += 1e-6
            lines[i] = json.dumps(row)
            break
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join(lines) + "\n")
    assert main(["trace-verify", str(tampered)]) == 3


def test_trace_verify_empty_trace(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["trace-verify", str(empty)]) == 3
    assert capsys.readouterr().err == "verification failed: the trace has no header: it holds no event\n"


def test_trace_verify_unreadable_trace(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("definitely not json\n")
    assert main(["trace-verify", str(bad)]) == 3


def test_trace_verify_a_line_nested_too_deep_is_unreadable(tmp_path, capsys):
    """json raises RecursionError, not ValueError, on a value nested
    thousands deep: it is an unreadable line, not a crash."""
    deep = tmp_path / "deep.jsonl"
    deep.write_text("[" * 3000 + "\n")
    assert main(["trace-verify", str(deep)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("verification failed: unreadable trace line 1: maximum recursion depth exceeded")


@pytest.mark.parametrize("kind, field", [("stored", "contribution"), ("updated", "L_after"), ("updated", "S_after")])
def test_trace_verify_rejects_nan(tmp_path, kind, field):
    out = tmp_path / "out"
    main(["sweep", "--config", small_sweep_config(tmp_path), "--out", str(out)])
    lines = next((out / "traces").glob("*.jsonl")).read_text().splitlines()
    index = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == kind)
    row = json.loads(lines[index])
    row["payload"][field] = float("nan")  # json writes NaN, and reads it back
    lines[index] = json.dumps(row)
    tampered = tmp_path / "nan.jsonl"
    tampered.write_text("\n".join(lines) + "\n")
    assert main(["trace-verify", str(tampered)]) == 3


@pytest.mark.parametrize(
    "line",
    [
        "[1, 2]",
        '{"seq": 1, "kind": "stored", "payload": {"claim": "x", "active": true, "contribution": 0.1}}',
        '{"seq": 1, "kind": "updated", "payload": {"L_before": "x", "L_after": 0.0, "S_before": 0.0, "S_after": 0.0}}',
        '{"seq": "a", "kind": "stored", "payload": {}}',
    ],
    ids=["array", "stored-without-id", "string-L_before", "string-seq"],
)
def test_trace_verify_rejects_malformed_event(tmp_path, capsys, line):
    """Each line follows a well-formed header."""
    header = make_header()
    bad = tmp_path / "bad.jsonl"
    bad.write_text(header.to_json() + "\n" + line + "\n")
    assert main(["trace-verify", str(bad)]) == 3
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("extra", [' {"seq": 1, "kind": "x", "payload": {}}', " x"], ids=["object", "word"])
def test_trace_verify_rejects_extra_data_after_an_event(tmp_path, capsys, extra):
    out = tmp_path / "out"
    main(["sweep", "--config", small_sweep_config(tmp_path), "--out", str(out)])
    lines = next((out / "traces").glob("*.jsonl")).read_text().splitlines()
    lines[2] += extra
    bad = tmp_path / "extra.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["trace-verify", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("verification failed: unreadable trace line 3: Extra data")
    assert "Traceback" not in err


def make_header():
    """The header event of a default-config agent."""
    return simulation.make_agent("a", "t", simulation.OPEN_MINDED, 0.8, 0.5).trace[0]


def sum_as_in_python_3_12(iterable, /, start=0):
    """CPython 3.12's builtin sum: ints add exactly; once the total is a
    float, float and int terms are added with Neumaier's compensation,
    whose running correction is added when the float run ends, if it is
    non-zero and finite; any other term is added as it is."""
    items = iter(iterable)
    total = start
    if type(total) is int:
        for item in items:
            if type(item) not in (int, bool):
                total = total + item
                break
            total += item
        else:
            return total
    if type(total) is float:
        correction, other = 0.0, None
        for item in items:
            if type(item) is not float and not (type(item) in (int, bool) and -(2**63) <= item < 2**63):
                other = [item]
                break
            term = float(item)
            added = total + term
            if abs(total) >= abs(term):
                correction += (total - added) + term
            else:
                correction += (term - added) + total
            total = added
        if correction and math.isfinite(correction):
            total += correction
        if other is None:
            return total
        total = total + other[0]
    for item in items:
        total = total + item
    return total


def test_sum_as_in_python_3_12_compensates_float_rounding():
    assert sum_as_in_python_3_12([0.1] * 10) == 1.0  # a left fold gives 0.9999999999999999
    assert sum_as_in_python_3_12([1e100, 1.0, -1e100]) == 1.0
    assert sum_as_in_python_3_12([2**70, 1]) == 2**70 + 1
    assert sum_as_in_python_3_12([math.inf, 1.0]) == math.inf
    assert math.copysign(1.0, sum_as_in_python_3_12([-0.0], -0.0)) == -1.0
    if sys.version_info >= (3, 12):  # the emulation is the builtin here
        rng = random.Random(12)
        for _ in range(2000):
            terms = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-20, 20) for _ in range(rng.randint(0, 12))]
            assert repr(sum_as_in_python_3_12(terms)) == repr(sum(terms))


@pytest.mark.parametrize("command", [["debate"], ["replay", "--cases", "{cases}"]], ids=["debate", "replay"])
def test_outputs_do_not_depend_on_how_builtin_sum_adds_floats(tmp_path, monkeypatch, command):
    """The default debate and a replay write the same bytes when builtin
    sum compensates float rounding, as it does from Python 3.12 on, since
    every float sum that reaches an output is core.left_sum."""
    args = [arg.format(cases=write_cases(tmp_path / "cases.jsonl")) for arg in command]
    assert main([*args, "--out", str(tmp_path / "plain")]) == 0
    monkeypatch.setattr(builtins, "sum", sum_as_in_python_3_12)
    assert main([*args, "--out", str(tmp_path / "compensated")]) == 0
    assert tree_bytes(tmp_path / "compensated") == tree_bytes(tmp_path / "plain")


@pytest.fixture(scope="module")
def default_runs(tmp_path_factory):
    """Each trace of the default sweep and debate, by file name, with the
    agent that wrote it."""
    agents = []
    make_agent = simulation.make_agent

    def keep(*args, **kwargs):
        agents.append(make_agent(*args, **kwargs))
        return agents[-1]

    out = tmp_path_factory.mktemp("default")
    with mock.patch.object(simulation, "make_agent", keep):
        assert main(["sweep", "--out", str(out / "sweep")]) == 0
        assert main(["debate", "--out", str(out / "debate")]) == 0
    by_text = {"".join(event.to_json() + "\n" for event in agent.trace): agent for agent in agents}
    return {path.name: (path, by_text[path.read_text(encoding="utf-8")]) for path in out.glob("*/traces/*.jsonl")}


@pytest.fixture(scope="module")
def default_sweep_trace(default_runs):
    """The default sweep's sweep_u_0.4.jsonl and the line trace-verify
    prints for it."""
    trace = default_runs["sweep_u_0.4.jsonl"][0]
    events = engine.read_trace(trace)
    final = engine.verify_trace(events)
    return trace, f"trace verified: L={final.log_odds!r} S={final.stance!r} ({len(events)} events)\n"


def test_trace_verify_streams_the_trace(default_sweep_trace, monkeypatch, capsys):
    trace, printed = default_sweep_trace

    def whole_trace(path):
        raise AssertionError("trace-verify read the whole trace into a list")

    read_trace = engine.read_trace
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "credence" and getattr(module, "read_trace", None) is read_trace:
            monkeypatch.setattr(module, "read_trace", whole_trace)
    capsys.readouterr()
    assert main(["trace-verify", str(trace)]) == 0
    assert capsys.readouterr().out == printed


def test_every_default_trace_line_is_json_dumps_of_its_event(default_runs):
    assert len(default_runs) == 34
    for path, agent in default_runs.values():
        rows = [{"seq": e.seq, "kind": e.kind, "payload": e.payload} for e in agent.trace]
        expected = "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)
        assert path.read_bytes() == expected.encode("utf-8"), path.name


def record_fields(store):
    return [(r.id, r.claim, r.polarity, repr(r.strength), r.role, r.active, r.archived_by) for r in store]


def test_a_debate_reflection_is_stored_inactive(default_runs):
    """In the default debate an agent's message quotes its own retrieved
    records, so the other agent's replies bring its own seed and self
    claims back as opponent evidence: 396 of the 900 opponent records.
    Each is stored inactive, archived by an earlier record of its claim
    (the agent's own, or the same claim stored before as opponent
    evidence), since strengths round-trip and a tie keeps the existing
    record, so a reflection never enters L."""
    opponents = reflections = 0
    for name, (_, agent) in default_runs.items():
        if not name.startswith("debate_"):
            continue
        own = set()  # the seed and self claims stored so far
        for record in agent.memory:
            if record.role != credence.Role.OPPONENT:
                own.add(record.claim)
                continue
            opponents += 1
            if record.claim in own:
                reflections += 1
                kept = agent.memory.records[record.archived_by]
                assert not record.active and kept.claim == record.claim and kept.id < record.id, (name, record.id)
    assert (opponents, reflections) == (900, 396)


def test_store_from_trace_equals_the_run_store_on_every_default_trace(default_runs):
    """The 10 sweep and 24 debate traces, seed rescales and deduplication
    losers included, rebuild their agents' stores."""
    assert len(default_runs) == 34
    rescaled = 0
    for path, agent in default_runs.values():
        rebuilt = engine.store_from_trace(engine._trace_events(path))
        assert record_fields(rebuilt) == record_fields(agent.memory), path.name
        assert len(rebuilt) == len(agent.memory)
        assert sum(e.kind == "stored" for e in agent.trace) == len(agent.memory)
        rescaled += sum(len(e.payload["ids"]) for e in agent.trace if e.kind == "rescaled")
    assert rescaled == 10 + 336


DELETE = object()
SEQ = object()  # as an edits key, the event's seq rather than a payload field


def edited_trace(trace, tmp_path, seq: int, edits: dict):
    """A copy of the trace whose event seq has the given payload fields;
    a value of DELETE deletes the field."""
    rows = [json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines()]
    payload = rows[seq]["payload"]
    for key, value in edits.items():
        if key is SEQ:
            rows[seq]["seq"] = value
        elif value is DELETE:
            del payload[key]
        else:
            payload[key] = value
    edited = tmp_path / "edited.jsonl"
    edited.write_text("".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows), encoding="utf-8")
    return edited


# Edits of the default sweep_u_0.4.jsonl: (seq edited, edits, seq reported,
# message).  Seq 3 stores record 2 while records 0 and 1 are active; its
# nearest is record 0.  Seq 1 stores record 0, which had nothing to match.
# Seq 19 stores record 11, which lost deduplication to record 9 and is
# inactive.  The kept_new rows edit the stored event's active flag, which
# carries what the resolved event's kept_new did before ingests became one
# event.
INCOMPLETE = "stored record 2 needs a string claim, a strength and a boolean active flag"
TRACE_FIELD_FAULTS = {
    "polarity-0": (3, {"polarity": 0}, 3, "stored polarity 0 not in {-1, +1}"),
    "polarity-str": (3, {"polarity": "+1"}, 3, "stored polarity +1 not in {-1, +1}"),
    "polarity-bool": (3, {"polarity": True}, 3, "stored polarity True not in {-1, +1}"),
    "strength-2.5": (3, {"strength": 2.5}, 3, "stored strength hint 2.5 is not a finite number in [0, 1]"),
    "strength-nan": (3, {"strength": math.nan}, 3, "stored strength hint nan is not a finite number in [0, 1]"),
    "strength-str": (3, {"strength": "0.5"}, 3, "stored strength hint '0.5' is not a finite number in [0, 1]"),
    "strength-null": (3, {"strength": None}, 3, INCOMPLETE),
    "strength-missing": (3, {"strength": DELETE}, 3, INCOMPLETE),
    "role": (3, {"role": "judge"}, 3, "stored 'judge' is not a valid Role"),
    "claim-blank": (3, {"claim": "  "}, 3, "stored candidate claim is empty"),
    "claim-number": (3, {"claim": 5}, 3, INCOMPLETE),
    "active-str": (3, {"active": "no"}, 3, INCOMPLETE),
    "all-four": (
        3, {"polarity": 7, "strength": "x", "role": "judge", "claim": ""}, 3, "stored 'judge' is not a valid Role"
    ),
    "id-out-of-order": (2, {"id": 2}, 2, "stored id 2 is not the next id 1"),
    "id-negative": (3, {"id": -1}, 3, "stored id -1 is not the next id 2"),
    "archived_id-unknown": (3, {"archived_id": 999}, 3, "stored archived_id 999 names no active record"),
    "archived_id-own-id": (3, {"archived_id": 2}, 3, "stored archived_id 2 names no active record"),
    "archived_id-bool": (3, {"archived_id": True}, 3, "stored archived_id True names no active record"),
    "archived_id-str": (3, {"archived_id": "0"}, 3, "stored archived_id '0' names no active record"),
    "archived_id-float": (3, {"archived_id": 0.0}, 3, "stored archived_id 0.0 names no active record"),
    "archived_id-archived": (26, {"archived_id": 11}, 26, "stored archived_id 11 names no active record"),
    "archived_id-unmatched": (3, {"archived_id": 1}, 3, "stored archived_id 1 is not its matched_id 0"),
    "matched_id-str": (3, {"matched_id": "0"}, 3, "stored matched_id '0' names no active record"),
    "matched_id-archived": (26, {"matched_id": 11}, 26, "stored matched_id 11 names no active record"),
    "similarity-str": (3, {"similarity": "banana"}, 3, "stored similarity 'banana' of matched_id 0 is not a number in [0, 1]"),
    "similarity-7.5": (3, {"similarity": 7.5}, 3, "stored similarity 7.5 of matched_id 0 is not a number in [0, 1]"),
    "similarity-null": (3, {"similarity": None}, 3, "stored similarity None of matched_id 0 is not a number in [0, 1]"),
    "similarity-bool": (3, {"similarity": True}, 3, "stored similarity True of matched_id 0 is not a number in [0, 1]"),
    "similarity-unmatched": (1, {"similarity": 0.5}, 1, "stored similarity 0.5 has no matched_id"),
    "kept_new-str": (
        19, {"active": "banana"}, 19, "stored record 11 needs a string claim, a strength and a boolean active flag"
    ),
    "kept_new-false-archiving": (
        3, {"active": False, "archived_id": 0}, 3, "stored record 2 is inactive, so it archives nothing and has a matched_id"
    ),
    "kept_new-false": (1, {"active": False}, 1, "stored record 0 is inactive, so it archives nothing and has a matched_id"),
    "seq-repeated": (3, {SEQ: 2}, 2, "stored seq does not increase"),
}


@pytest.mark.parametrize("seq, edits, reported, message", TRACE_FIELD_FAULTS.values(), ids=TRACE_FIELD_FAULTS.keys())
def test_a_bad_stored_or_resolved_field_fails_verify_and_rebuild(
    default_sweep_trace, tmp_path, capsys, seq, edits, reported, message
):
    """A stored event carries what the resolved event did (the
    deduplication outcome), so both readers check those fields on it."""
    trace, _ = default_sweep_trace
    assert [engine.read_trace(trace)[s].payload.get("id") for s in (1, 2, 3, 19)] == [0, 1, 2, 11]
    bad = edited_trace(trace, tmp_path, seq, edits)
    capsys.readouterr()
    assert main(["trace-verify", str(bad)]) == 3
    assert capsys.readouterr().err == f"verification failed: event {reported}: {message}\n"
    with pytest.raises(TraceVerificationError, match=re.escape(f"event {reported}: {message}")):
        engine.store_from_trace(engine._trace_events(bad))


# Edits of the default sweep_u_0.4.jsonl's other events: (seq edited,
# edits, message).  Seq 13 is the first extracted event, and seqs 16 and 17
# the first retrieved and composed events, with k 5 and the stance in bin
# 9; record 11, stored inactive at seq 19, is no active record at seq 28.
FEW = "retrieved ids {!r} are not at most 5 distinct ids of active records"
SUMMED = "retrieved k_plus {!r} and k_minus {!r} are not ints >= 0 summing to k 5"
STRONGLY = "argue strongly for the proposition"
EVENT_FAULTS = {
    "count-negative": (13, {"count": -3}, "extracted count -3 is not an int >= 0"),
    "count-bool": (13, {"count": True}, "extracted count True is not an int >= 0"),
    "count-float": (13, {"count": 1.0}, "extracted count 1.0 is not an int >= 0"),
    "count-missing": (13, {"count": DELETE}, "extracted count None is not an int >= 0"),
    "ids-unknown-and-str": (16, {"ids": [999, "x"]}, FEW.format([999, "x"])),
    "ids-repeated": (16, {"ids": [9, 9, 0, 5, 3]}, FEW.format([9, 9, 0, 5, 3])),
    "ids-too-many": (16, {"ids": [9, 8, 0, 5, 3, 1]}, FEW.format([9, 8, 0, 5, 3, 1])),
    "ids-bool": (16, {"ids": [True]}, FEW.format([True])),
    "ids-str": (16, {"ids": "9"}, FEW.format("9")),
    "ids-archived": (28, {"ids": [11]}, FEW.format([11])),
    "k_plus-short": (16, {"k_plus": 4}, SUMMED.format(4, 0)),
    "k_minus-negative": (16, {"k_plus": 6, "k_minus": -1}, SUMMED.format(6, -1)),
    "k_plus-bool": (16, {"k_plus": True, "k_minus": 4}, SUMMED.format(True, 4)),
    "k_minus-float": (16, {"k_minus": 0.0}, SUMMED.format(5, 0.0)),
    "bin-42": (17, {"bin": 42}, f"composed (bin, label) (42, {STRONGLY!r}) is not (9, {STRONGLY!r}), of the replayed stance"),
    "bin-float": (17, {"bin": 9.0}, f"composed (bin, label) (9.0, {STRONGLY!r}) is not (9, {STRONGLY!r}), of the replayed stance"),
    "label": (
        17, {"label": "argue for the proposition"},
        f"composed (bin, label) (9, 'argue for the proposition') is not (9, {STRONGLY!r}), of the replayed stance",
    ),
}


@pytest.mark.parametrize("seq, edits, message", EVENT_FAULTS.values(), ids=EVENT_FAULTS.keys())
def test_a_bad_extracted_retrieved_or_composed_event_fails_verify_and_rebuild(
    default_sweep_trace, tmp_path, capsys, seq, edits, message
):
    trace, _ = default_sweep_trace
    kinds = {s: engine.read_trace(trace)[s].kind for s in (13, 16, 17, 28)}
    assert kinds == {13: "extracted", 16: "retrieved", 17: "composed", 28: "retrieved"}
    bad = edited_trace(trace, tmp_path, seq, edits)
    capsys.readouterr()
    assert main(["trace-verify", str(bad)]) == 3
    assert capsys.readouterr().err == f"verification failed: event {seq}: {message}\n"
    with pytest.raises(TraceVerificationError, match=re.escape(f"event {seq}: {message}")):
        engine.store_from_trace(engine._trace_events(bad))


# Events appended to the default sweep_u_0.4.jsonl, whose records 0 to 99
# are stored: (kind, payload from the trace's rows, message).
APPENDED_EVENTS = {
    "stored-again": (
        "stored", lambda rows: {**rows[1]["payload"], "active": False, "matched_id": 0}, "stored id 0 is not the next id 100"
    ),
    "header-again": ("header", lambda rows: rows[0]["payload"], "header is not the first event"),
    "rescaled-unknown-id": (
        "rescaled", lambda rows: {"factor": 0.5, "ids": [99, 100]},
        "rescaled ids [99, 100] are not increasing ids of stored records",
    ),
    "rescaled-unsorted": (
        "rescaled", lambda rows: {"factor": 0.5, "ids": [1, 0]}, "rescaled ids [1, 0] are not increasing ids of stored records"
    ),
    "rescaled-ids-str": (
        "rescaled", lambda rows: {"factor": 0.5, "ids": "0"}, "rescaled ids '0' are not increasing ids of stored records"
    ),
    "rescaled-factor-negative": (
        "rescaled", lambda rows: {"factor": -0.5, "ids": [0]}, "rescaled factor -0.5 is not a finite number >= 0"
    ),
    "rescaled-factor-str": ("rescaled", lambda rows: {"factor": "0.5", "ids": [0]}, "rescaled factor '0.5' is not a number"),
    "warning-message-number": ("warning", lambda rows: {"message": 12345}, "warning message 12345 is not a string"),
    "warning-message-missing": ("warning", lambda rows: {}, "warning message None is not a string"),
    "unknown-kind": ("bogus", lambda rows: {}, "bogus is not an event kind of the trace format"),
}


@pytest.mark.parametrize("kind, payload, message", APPENDED_EVENTS.values(), ids=APPENDED_EVENTS.keys())
def test_an_appended_event_fails_verify_and_rebuild(default_runs, tmp_path, capsys, kind, payload, message):
    trace, agent = default_runs["sweep_u_0.4.jsonl"]
    assert len(agent.memory) == 100
    rows = [json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines()]
    assert (rows[0]["kind"], rows[1]["payload"]["id"]) == ("header", 0)
    rows.append({"seq": len(rows), "kind": kind, "payload": payload(rows)})
    bad = tmp_path / "appended.jsonl"
    bad.write_text("".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows), encoding="utf-8")
    expected = f"event {len(rows) - 1}: {message}"
    capsys.readouterr()
    assert main(["trace-verify", str(bad)]) == 3
    assert capsys.readouterr().err == f"verification failed: {expected}\n"
    with pytest.raises(TraceVerificationError, match=re.escape(expected)):
        engine.store_from_trace(engine._trace_events(bad))


def test_trace_verify_rejects_a_tampered_s_before(default_sweep_trace, tmp_path, capsys):
    trace, _ = default_sweep_trace
    seq = next(e.seq for e in engine.read_trace(trace) if e.kind == "updated" and e.payload["S_before"] > 0)
    bad = edited_trace(trace, tmp_path, seq, {"S_before": -0.5})
    capsys.readouterr()
    assert main(["trace-verify", str(bad)]) == 3
    assert capsys.readouterr().err == f"verification failed: event {seq}: S_before inconsistent with L_before\n"


def flip_bit_40(value: float) -> float:
    (bits,) = struct.unpack("<Q", struct.pack("<d", value))
    (flipped,) = struct.unpack("<d", struct.pack("<Q", bits ^ (1 << 40)))
    return flipped


# Edits that trace-verify catches only by deriving each contribution again
# from the header's (u, a): (trace, seq edited, edits, seq reported,
# message).  Seq 1 of either sweep trace stores seed record 0, whose
# contribution the edit keeps; seq 14 of sweep_u_0.4.jsonl stores the
# first opponent record.  sweep_a_1.0.jsonl rescales its seeds at seq 11,
# so record 0's contribution at seq 1 is never folded into an updated L.
REDERIVED = "stored contribution {} != re-derived {}"
CONTRIBUTION_EDITS = {
    "polarity": ("sweep_u_0.4.jsonl", 1, {"polarity": -1}, 1, REDERIVED.format(0.45805755822733496, -0.45805755822733496)),
    "strength": ("sweep_u_0.4.jsonl", 1, {"strength": 0.5}, 1, REDERIVED.format(0.45805755822733496, math.log1p(0.5 * 0.7))),
    "role": ("sweep_u_0.4.jsonl", 1, {"role": "opponent"}, 1, REDERIVED.format(0.45805755822733496, math.log1p(0.83 * 0.4))),
    "uptake": ("sweep_u_0.4.jsonl", 0, {"uptake": 0.5}, 14, REDERIVED.format(-0.28367405105424215, -math.log1p(0.82 * 0.5))),
    "anchoring": ("sweep_u_0.4.jsonl", 0, {"anchoring": 0.5}, 1, REDERIVED.format(0.45805755822733496, math.log1p(0.83 * 0.5))),
    "rescaled-seed-bit-40": (
        "sweep_a_1.0.jsonl", 1, {"contribution": flip_bit_40(0.6043159668533296)}, 1,
        REDERIVED.format(flip_bit_40(0.6043159668533296), 0.6043159668533296),
    ),
}


@pytest.mark.parametrize("name, seq, edits, reported, message", CONTRIBUTION_EDITS.values(), ids=CONTRIBUTION_EDITS.keys())
def test_trace_verify_rederives_each_contribution(default_runs, tmp_path, capsys, name, seq, edits, reported, message):
    trace = default_runs[name][0]
    assert main(["trace-verify", str(trace)]) == 0
    bad = edited_trace(trace, tmp_path, seq, edits)
    capsys.readouterr()
    assert main(["trace-verify", str(bad)]) == 3
    assert capsys.readouterr().err == f"verification failed: event {reported}: {message}\n"


def test_trace_verify_rederives_a_record_superseded_within_its_message(tmp_path, capsys):
    """Record 0 is archived by record 1 of its own message, so its
    contribution never reaches an updated L; its bit 40 still counts."""
    agent = simulation.make_agent("a", "t", simulation.OPEN_MINDED, 0.8, 0.5)
    text = "CLAIM +0.3: the same claim twice\nCLAIM +0.9: the same claim twice"
    engine.process_message(agent, credence.Message(text=text, author_role="opponent", order=0))
    first, second = (event for event in agent.trace if event.kind == "stored")
    assert second.payload["archived_id"] == first.payload["id"] == 0
    path = tmp_path / "superseded.jsonl"
    engine.write_trace(path, agent.trace)
    assert main(["trace-verify", str(path)]) == 0
    contribution = first.payload["contribution"]
    bad = edited_trace(path, tmp_path, first.seq, {"contribution": flip_bit_40(contribution)})
    capsys.readouterr()
    assert main(["trace-verify", str(bad)]) == 3
    message = REDERIVED.format(flip_bit_40(contribution), contribution)
    assert capsys.readouterr().err == f"verification failed: event {first.seq}: {message}\n"


# A number field set to an integer outside float range: (trace, seq, kind).
HUGE = 10**400
HUGE_FIELDS = {
    "uptake": ("sweep_u_0.4.jsonl", 0, "header"),
    "anchoring": ("sweep_u_0.4.jsonl", 0, "header"),
    "contribution": ("sweep_u_0.4.jsonl", 1, "stored"),
    "factor": ("sweep_a_1.0.jsonl", 11, "rescaled"),
    "L_before": ("sweep_u_0.4.jsonl", 12, "updated"),
}


@pytest.mark.parametrize("field", HUGE_FIELDS)
def test_trace_verify_rejects_an_integer_outside_float_range(default_runs, tmp_path, capsys, field):
    name, seq, kind = HUGE_FIELDS[field]
    bad = edited_trace(default_runs[name][0], tmp_path, seq, {field: HUGE})
    assert engine.read_trace(bad)[seq].kind == kind
    capsys.readouterr()
    assert main(["trace-verify", str(bad)]) == 3
    assert capsys.readouterr().err == f"verification failed: event {seq}: {kind} {field} {HUGE!r} is not a number\n"


# Edits that trace-verify rejects: (trace, seq edited, edits); a seq of
# None edits the first updated event with a positive S_before.
VERIFY_FAULTS = {
    **{f"contribution-{key}": row[:3] for key, row in CONTRIBUTION_EDITS.items()},
    "S_before": ("sweep_u_0.4.jsonl", None, {"S_before": -0.5}),
    **{f"huge-{field}": (name, seq, {field: HUGE}) for field, (name, seq, _) in HUGE_FIELDS.items()},
}


@pytest.mark.parametrize("name, seq, edits", VERIFY_FAULTS.values(), ids=VERIFY_FAULTS.keys())
def test_store_from_trace_fails_where_trace_verify_does(default_runs, tmp_path, name, seq, edits):
    """The rebuild replays the trace with trace-verify's checks, so it
    fails at the same event with the same message."""
    trace = default_runs[name][0]
    if seq is None:
        seq = next(e.seq for e in engine.read_trace(trace) if e.kind == "updated" and e.payload["S_before"] > 0)
    bad = edited_trace(trace, tmp_path, seq, edits)
    with pytest.raises(TraceVerificationError, match=r"^event \d+: ") as verified:
        engine.verify_trace_file(bad)
    with pytest.raises(TraceVerificationError) as rebuilt:
        engine.store_from_trace(engine._trace_events(bad))
    assert str(rebuilt.value) == str(verified.value)


# Header edits of the default sweep_u_0.4.jsonl: (edits, message).
HEADER_FAULTS = {
    "schema-1": ({"schema": 1}, "header schema 1 is not 2"),
    "agent_id-number": ({"agent_id": 7}, "header needs a string agent_id and topic"),
    "topic-null": ({"topic": None}, "header needs a string agent_id and topic"),
    "theta-1.5": ({"theta": 1.5}, "header theta must be in [0, 1], got 1.5"),
    "theta_self-nan": ({"theta_self": math.nan}, "header theta_self must be in [0, 1], got nan"),
    "k-2.5": ({"k": 2.5}, "header k must be an integer >= 1, got 2.5"),
    "k-true": ({"k": True}, "header k must be an integer >= 1, got True"),
    "k-0": ({"k": 0}, "header k must be >= 1, got 0"),
}


@pytest.mark.parametrize("edits, message", HEADER_FAULTS.values(), ids=HEADER_FAULTS.keys())
def test_a_bad_header_fails_verify_and_rebuild(default_sweep_trace, tmp_path, capsys, edits, message):
    trace, _ = default_sweep_trace
    bad = edited_trace(trace, tmp_path, 0, edits)
    capsys.readouterr()
    assert main(["trace-verify", str(bad)]) == 3
    assert capsys.readouterr().err == f"verification failed: event 0: {message}\n"
    with pytest.raises(TraceVerificationError, match=re.escape(f"event 0: {message}")):
        engine.store_from_trace(engine._trace_events(bad))


# Faults a rebuilt store shows: (trace, seq edited, edits, seq reported,
# message).  Of them, trace-verify sees only the restore rows,
# rescaled-above-1 and a null similarity beside a matched_id; the others
# edit a deduplication decision, which it trusts.  sweep_a_1.0.jsonl rescales its seeds, record 0 with strength
# 0.83 first, at seq 11, and stores record 10 at seq 14.  The restore rows
# turn that event into a store of record 0 again, with one field the store
# holds for it changed, as a seed rescale's re-store did before a rescale
# became one event.  Record 11 of sweep_u_0.4.jsonl lost deduplication to
# record 9 at similarity 1.0 (stored at seq 19).
RESTORED = "stored id 0 is not the next id 10"
UNMATCHED_NULL = r"stored similarity None of matched_id 9 is not a number in \[0, 1\]"
STORE_FAULTS = {
    "restore-claim": ("sweep_a_1.0.jsonl", 14, {"id": 0, "claim": "another claim"}, 14, RESTORED),
    "restore-polarity": ("sweep_a_1.0.jsonl", 14, {"id": 0, "polarity": -1}, 14, RESTORED),
    "restore-role": ("sweep_a_1.0.jsonl", 14, {"id": 0, "role": "self"}, 14, RESTORED),
    "restore-active": ("sweep_a_1.0.jsonl", 14, {"id": 0, "active": False}, 14, RESTORED),
    "rescaled-above-1": (
        "sweep_a_1.0.jsonl", 11, {"factor": 2.0}, 11, r"rescaled strength of record 0 1.66 is not a finite number in \[0, 1\]"
    ),
    "loser-similarity-ulp": (
        "sweep_u_0.4.jsonl", 19, {"similarity": math.nextafter(1.0, 0.0)}, 19,
        "stored similarity 0.9999999999999999 != re-derived 1.0",
    ),
    "loser-similarity-null": ("sweep_u_0.4.jsonl", 19, {"similarity": None}, 19, UNMATCHED_NULL),
    "loser-similarity-missing": ("sweep_u_0.4.jsonl", 19, {"similarity": DELETE}, 19, UNMATCHED_NULL),
    "loser-matched_id": ("sweep_u_0.4.jsonl", 19, {"matched_id": 8}, 19, "stored matched_id 8 != re-derived 9"),
}


@pytest.mark.parametrize("name, seq, edits, reported, message", STORE_FAULTS.values(), ids=STORE_FAULTS.keys())
def test_store_from_trace_rejects_what_its_store_contradicts(default_runs, tmp_path, name, seq, edits, reported, message):
    bad = edited_trace(default_runs[name][0], tmp_path, seq, edits)
    with pytest.raises(TraceVerificationError, match=f"event {reported}: .*{message}"):
        engine.store_from_trace(engine._trace_events(bad))


def test_trace_verify_skips_a_byte_order_mark_at_the_start(default_sweep_trace, tmp_path, capsys):
    trace, printed = default_sweep_trace
    marked = tmp_path / "bom.jsonl"
    marked.write_bytes(b"\xef\xbb\xbf" + trace.read_bytes())
    capsys.readouterr()
    assert main(["trace-verify", str(marked)]) == 0
    assert capsys.readouterr().out == printed


def test_trace_verify_reports_bytes_that_are_not_utf8(tmp_path, capsys):
    out = tmp_path / "out"
    main(["sweep", "--config", small_sweep_config(tmp_path), "--out", str(out)])
    lines = next((out / "traces").glob("*.jsonl")).read_bytes().splitlines()
    index = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == "stored")
    row = json.loads(lines[index])
    row["payload"]["claim"] = "caf\u00e9"
    lines[index] = json.dumps(row, ensure_ascii=False).encode("latin-1")  # the byte 0xE9
    bad = tmp_path / "latin1.jsonl"
    bad.write_bytes(b"\n".join(lines) + b"\n")
    capsys.readouterr()
    assert main(["trace-verify", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(
        f"verification failed: unreadable trace line {index + 1}: 'utf-8' codec can't decode byte 0xe9"
    )
    assert "Traceback" not in err


def test_sweep_reports_trace_warnings_on_stderr(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"sweep complete: {out}\n"
    header, *shown = captured.err.splitlines()
    assert header == "warnings: 9 in the traces written"
    assert len(shown) == 3
    for line, name in zip(shown, ("sweep_u_0.2.jsonl", "sweep_u_0.4.jsonl", "sweep_u_0.6.jsonl")):
        assert line.startswith(f"  {name}: seed target 0.99 unreachable")
    rows = [json.loads(line) for path in (out / "traces").glob("*.jsonl") for line in path.read_text().splitlines()]
    messages = [row["payload"]["message"] for row in rows if row["kind"] == "warning"]
    assert len(messages) == 9
    assert all(m.startswith("seed target 0.99 unreachable") for m in messages)


def test_runs_without_warnings_print_nothing_on_stderr(tmp_path, capsys):
    sweep_config = small_sweep_config(tmp_path, target=0.5)
    debate_config = write_yaml(tmp_path / "debate.yaml", {"debate": {"rounds": 2, "trials": 1}})
    assert main(["sweep", "--config", sweep_config, "--out", str(tmp_path / "s")]) == 0
    assert main(["debate", "--config", debate_config, "--out", str(tmp_path / "d")]) == 0
    assert capsys.readouterr().err == ""


def test_module_entry_point_reports_failure(tmp_path):
    # `python -m credence.cli` runs the command and exits with its code.
    env = {**os.environ, "PYTHONPATH": str(Path(credence.__file__).parents[1])}
    missing = tmp_path / "missing.jsonl"
    run = subprocess.run(
        [sys.executable, "-m", "credence.cli", "trace-verify", str(missing)], capture_output=True, text=True, env=env
    )
    assert run.returncode == 1
    assert run.stderr.startswith("error: ")


def test_main_reuses_one_parser():
    assert cli.build_parser() is cli.build_parser()


def test_strict_does_not_carry_over_to_the_next_command(tmp_path, capsys):
    cases = write_cases(tmp_path / "cases.jsonl", n=5)
    with open(cases, "a") as handle:
        handle.write("garbage\n")
    assert main(["replay", "--cases", cases, "--strict", "--out", str(tmp_path / "a")]) == 1
    assert "error: 1 malformed case lines (strict mode)" in capsys.readouterr().err
    assert main(["replay", "--cases", cases, "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "b" / "predictions.csv").exists()


def test_seed_does_not_carry_over_to_the_next_command(tmp_path):
    config = small_sweep_config(tmp_path)
    assert main(["sweep", "--config", config, "--seed", "11", "--out", str(tmp_path / "a")]) == 0
    assert main(["sweep", "--config", config, "--out", str(tmp_path / "b")]) == 0
    seeds = [json.loads((tmp_path / name / "resolved_config.json").read_text())["sweep"]["rng_seed"] for name in "ab"]
    assert seeds == [11, DEFAULTS["sweep"]["rng_seed"]] and seeds[0] != seeds[1]


@pytest.mark.parametrize("module", ["yaml", "urllib.request"])
def test_importing_the_package_and_cli_leaves_yaml_unloaded(module):
    # PyYAML is imported only when a --config file is read, urllib.request
    # only at an HTTP port's first request.
    env = {**os.environ, "PYTHONPATH": str(Path(credence.__file__).parents[1])}
    code = f"import sys, credence, credence.cli; print({module!r} in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert run.stdout == "False\n"


def test_config_that_is_not_yaml_is_a_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("a: [1,\n")
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid YAML in {bad}: ") and "Traceback" not in err
    assert not out.exists()
