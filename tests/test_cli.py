import json
import random

import pytest
import yaml

from credence import judgement
from credence.cli import main
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


def test_unknown_config_key_is_validation_error(tmp_path):
    config = write_yaml(tmp_path / "c.yaml", {"sweep": {"gird": [0.2]}})
    assert main(["sweep", "--config", config, "--out", str(tmp_path / "o")]) == 1


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
    assert capsys.readouterr().err.startswith("error: folds must be an integer >= 1")


def test_replay_unreachable_scoring_service_is_runtime_error(tmp_path, monkeypatch, capsys):
    attempts = []

    def down(url, payload, timeout):
        attempts.append(url)
        raise OSError("connection refused")

    monkeypatch.setattr(judgement, "requests_transport", down)
    monkeypatch.delenv("CREDENCE_SCORER_URL", raising=False)
    cases = tmp_path / "cases.jsonl"
    row = case_to_dict(ReplayCase("p", "g", "t", 3, 4, evidence=[EvidenceItem(claim="unscored", polarity=1)]))
    cases.write_text(json.dumps(row) + "\n")
    config = write_yaml(tmp_path / "c.yaml", {"ports": {"scorer": "service", "scorer_url": "http://scores.invalid"}})
    assert main(["replay", "--config", config, "--cases", str(cases), "--out", str(tmp_path / "o")]) == 2
    assert attempts == ["http://scores.invalid"] * 3  # the default 2 retries
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
