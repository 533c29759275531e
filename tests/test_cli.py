import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import credence
from credence import judgement
from credence.cli import main
from credence.config import DEFAULTS
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
    "sweep-k-string": ("sweep", {"sweep": {"k": "5"}}, "config key 'sweep.k' must be an integer"),
    "sweep-theta-bool": ("sweep", {"sweep": {"theta": True}}, "config key 'sweep.theta' must be a finite number"),
    "sweep-rounds-bool": ("sweep", {"sweep": {"rounds": True}}, "config key 'sweep.rounds' must be an integer"),
    "sweep-grid-null-item": ("sweep", {"sweep": {"grid": [0.2, None]}}, "config key 'sweep.grid' must be a list"),
    "sweep-section-list": ("sweep", {"sweep": [1]}, "config key 'sweep' must be a mapping"),
    "sweep-theta-above-one": ("sweep", {"sweep": {"theta": 2.5}}, "theta must be in [0, 1]"),
    "sweep-theta-nan": ("sweep", {"sweep": {"theta": float("nan")}}, "config key 'sweep.theta' must be a finite number"),
    "sweep-k-zero": ("sweep", {"sweep": {"k": 0}}, "k must be >= 1"),
    "sweep-negative-grid-value": ("sweep", {"sweep": {"grid": [0.2, -0.1]}}, "sweep grid [0.2, -0.1] must be"),
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
    config = write_yaml(tmp_path / "c.yaml", {**payload, "replay": {**cases, **payload.get("replay", {})}})
    out = tmp_path / "o"
    assert main([command, "--config", config, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


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
    row = json.loads(open(cases).readline())
    row["evidence"][0]["polarity"] = None  # a line error, not a crash
    with open(cases, "a") as handle:
        handle.write("garbage\n")
        handle.write(json.dumps(row) + "\n")
    assert main(["replay", "--cases", cases, "--out", str(tmp_path / "a")]) == 0
    assert main(["replay", "--cases", cases, "--strict", "--out", str(tmp_path / "b")]) == 1


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


def test_trace_verify_empty_trace(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["trace-verify", str(empty)]) == 0


def test_trace_verify_unreadable_trace(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("definitely not json\n")
    assert main(["trace-verify", str(bad)]) == 3


def test_module_entry_point_reports_failure(tmp_path):
    # `python -m credence.cli` runs the command and exits with its code.
    env = {**os.environ, "PYTHONPATH": str(Path(credence.__file__).parents[1])}
    missing = tmp_path / "missing.jsonl"
    run = subprocess.run(
        [sys.executable, "-m", "credence.cli", "trace-verify", str(missing)], capture_output=True, text=True, env=env
    )
    assert run.returncode == 1
    assert run.stderr.startswith("error: ")
