"""Command-line entry point: sweep, debate, replay, trace-verify.

Every command writes a resolved-config snapshot next to its outputs and
is deterministic given that snapshot plus its input files.  Exit codes:
0 success, 1 validation, 2 runtime, 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import astuple, fields
from pathlib import Path

from . import config as config_mod
from .exceptions import ConfigError, ContractError, CredenceError, TraceVerificationError
from .engine import read_trace, verify_trace, write_trace
from .extraction import CLAIM_LINE, ScriptedExtractor, ServiceExtractor
from .judgement import BuiltinScorer, ServiceScorer
from .replay import CalibrationGrid, build_replay_report, load_cases_jsonl
from .simulation import (
    DebateConfig,
    MetricSummary,
    PROFILE_PRESETS,
    SweepConfig,
    check_script_length,
    load_scripted_claims,
    run_scripted_opponent_sweep,
    run_two_agent_debate,
    seed_pool,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="credence", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("sweep", "debate", "replay"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None)
        p.add_argument("--out", type=Path, default=Path("out") / name)
        p.add_argument("--seed", type=int, default=None, help="override the run rng seed")
        if name == "replay":
            p.add_argument("--key", choices=("group", "topic"), default=None)
            p.add_argument("--strict", action="store_true")
            p.add_argument("--cases", type=Path, default=None, help="override replay.case_file")

    p = sub.add_parser("trace-verify")
    p.add_argument("trace", type=Path)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "debate":
            return cmd_debate(args)
        if args.command == "replay":
            return cmd_replay(args)
        return cmd_trace_verify(args)
    except (ConfigError, ContractError, OSError) as exc:  # OSError: a file cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TraceVerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except CredenceError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _script_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if CLAIM_LINE.match(line)]


# ---------------------------------------------------------------------------


def _from_section(build, cfg: dict, section: str, **extra):
    """Call build (a run object's class or a function) with the keys of
    cfg[section] that it takes (config_mod.PARAMETER_OF names the renamed
    ones), plus extra."""
    return build(**config_mod.arguments_for(build, section, cfg[section]), **extra)


def _prologue(args, command: str, seed_key: str, build):
    """Load the config, apply --seed, and build and check every run object
    with build(cfg); only then create --out and write the snapshot, so a
    command that fails here writes nothing."""
    cfg = config_mod.load_config(args.config)
    if args.seed is not None:
        cfg[command][seed_key] = args.seed
    built = build(cfg)
    out = Path(args.out)
    config_mod.write_snapshot(cfg, out)
    return built, out


def _build_port(ports: dict, name: str, local: str, local_cls, service_cls):
    """The `ports.<name>` backend: `local` or an HTTP service, whose URL an
    environment variable overrides."""
    kind = ports[name]
    if kind == local:
        return local_cls()
    if kind != "service":
        raise ConfigError(f"unknown {name} kind {kind!r}; use {local!r} or 'service'")
    variable = f"CREDENCE_{name.upper()}_URL"
    url = os.environ.get(variable) or ports[f"{name}_url"]
    if not url:
        raise ConfigError(f"ports.{name}=service needs {name}_url or {variable}")
    return service_cls(url, timeout=ports["timeout"], retries=ports["retries"])


def _ports(cfg: dict) -> dict:
    ports = cfg["ports"]
    return {
        "scorer": _build_port(ports, "scorer", "builtin", BuiltinScorer, ServiceScorer),
        "extractor": _build_port(ports, "extractor", "scripted", ScriptedExtractor, ServiceExtractor),
    }


def cmd_sweep(args) -> int:
    def build(cfg):
        section = cfg["sweep"]
        corpus = load_scripted_claims(config_mod.load_corpus_text(section["seed_file"], "seeds.txt"))
        script = _script_lines(config_mod.load_corpus_text(section["opponent_file"], "opponent_con.txt"))
        seed_pool(corpus, section["seeds_per_side"], section["target"])
        check_script_length(script, section["rounds"])
        return _from_section(SweepConfig, cfg, "sweep"), corpus, script, _ports(cfg)

    (sweep_config, corpus, script, ports), out = _prologue(args, "sweep", "rng_seed", build)
    trajectory_rows = []
    final_rows = []
    trace_dir = out / "traces"
    trace_dir.mkdir(exist_ok=True)
    for param in ("u", "a"):
        runs = run_scripted_opponent_sweep(sweep_config, sweep_config.grid, param, corpus, script, **ports)
        for run, agent in runs:
            for round_index, stance in enumerate(run.stances):
                trajectory_rows.append([param, run.value, round_index, repr(stance)])
            final_rows.append([param, run.value, repr(run.final_stance)])
            write_trace(trace_dir / f"sweep_{param}_{run.value}.jsonl", agent.trace)
    _write_csv(out / "sweep_trajectories.csv", ["param", "value", "round", "stance"], trajectory_rows)
    _write_csv(out / "sweep_finals.csv", ["param", "value", "final_stance"], final_rows)
    print(f"sweep complete: {out}")
    return 0


def _pairing_profiles(pairing: str) -> dict:
    try:
        pro_name, con_name = pairing.split("/")
        return {"pro_profile": PROFILE_PRESETS[pro_name], "con_profile": PROFILE_PRESETS[con_name]}
    except (ValueError, KeyError):
        raise ConfigError(f"unknown pairing {pairing!r}; use e.g. 'open/stubborn'")


def cmd_debate(args) -> int:
    def build(cfg):
        section = cfg["debate"]
        debates = [
            (pairing, _from_section(DebateConfig, cfg, "debate", **_pairing_profiles(pairing)))
            for pairing in section["pairings"]
        ]
        corpus = load_scripted_claims(config_mod.load_corpus_text(section["seed_file"], "seeds.txt"))
        for target in section["targets"]:
            seed_pool(corpus, section["seeds_per_side"], target)
        return debates, corpus, _ports(cfg)

    (debates, corpus, ports), out = _prologue(args, "debate", "rng_seed", build)
    trace_dir = out / "traces"
    trace_dir.mkdir(exist_ok=True)

    metric_rows = []
    convergence_rows = []
    series_rows = []
    summary_rows = []
    for pairing, debate_config in debates:
        result = run_two_agent_debate(debate_config, corpus, **ports)
        topic = debate_config.topic
        slug = pairing.replace("/", "-")
        for trial, metrics in enumerate(result.per_trial_metrics):
            metric_rows.append([topic, pairing, trial, *map(repr, astuple(metrics))])
        summary = result.metrics
        summary_rows.append([topic, pairing, debate_config.trials, *map(repr, astuple(summary))])
        convergence_rows.append([topic, pairing, repr(summary.convergence)])
        for trial, series in enumerate(result.series):
            for round_index, (pro_stance, con_stance) in enumerate(series):
                series_rows.append([pairing, trial, round_index, "pro", repr(pro_stance)])
                series_rows.append([pairing, trial, round_index, "con", repr(con_stance)])
        for trial, (pro_trace, con_trace) in enumerate(result.traces):
            write_trace(trace_dir / f"debate_{slug}_t{trial}_pro.jsonl", pro_trace)
            write_trace(trace_dir / f"debate_{slug}_t{trial}_con.jsonl", con_trace)

    columns = [f.name for f in fields(MetricSummary)]  # the per-trial file calls crossing_rate "crossing"
    _write_csv(out / "debate_metrics.csv", ["topic", "setup", "trial", *columns[:-1], "crossing"], metric_rows)
    _write_csv(out / "debate_summary.csv", ["topic", "setup", "n", *columns], summary_rows)
    _write_csv(out / "convergence.csv", ["topic", "pairing", "convergence"], convergence_rows)
    _write_csv(out / "series.csv", ["pairing", "trial", "round", "agent", "stance"], series_rows)
    print(f"debate complete: {out}")
    return 0


def cmd_replay(args) -> int:
    def build(cfg):
        section = cfg["replay"]
        if args.key is not None:
            section["key"] = args.key
        case_file = args.cases or section["case_file"]
        if not case_file:
            raise ConfigError("replay needs a case file (--cases or replay.case_file)")
        section["case_file"] = str(case_file)
        cases, errors = load_cases_jsonl(case_file)
        for line_number, message in errors:
            print(f"{case_file}:{line_number}: {message}", file=sys.stderr)
        if errors and args.strict:
            raise ContractError(f"{len(errors)} malformed case lines (strict mode)")
        if not cases:
            raise ContractError(f"no valid replay cases in {case_file}")
        grid = _from_section(CalibrationGrid, cfg, "replay")
        return _from_section(build_replay_report, cfg, "replay", cases=cases, grid=grid, **_ports(cfg))

    # The report is built before anything is written.
    report, out = _prologue(args, "replay", "seed", build)
    _write_csv(
        out / "folds.csv",
        ["fold", "u", "a", "train_rmse", "heldout_rmse"],
        [
            [f.fold, f.u, f.a, repr(f.train_rmse), repr(f.heldout_rmse)]
            for f in report.pooled.fold_results
        ],
    )
    surface_rows = []
    for subset, surface in report.surfaces.items():
        minimum = min(surface.values())
        for (u, a), rmse in sorted(surface.items()):
            surface_rows.append([subset, u, a, repr(rmse - minimum)])
    _write_csv(out / "surface.csv", ["subset", "u", "a", "excess_rmse"], surface_rows)
    _write_csv(
        out / "predictions.csv",
        ["participant", "group", "topic", "fold", "subgroup", "initial", "final",
         "no_change", "linear", "be"],
        [
            [
                case.participant,
                case.group,
                case.topic,
                report.fold_ids[i],
                report.subgroup_of_case[i],
                repr(case.initial_stance),
                repr(case.observed_final),
                repr(float(report.no_change_predictions[i])),
                repr(float(report.linear_predictions[i])),
                repr(float(report.pooled.heldout_predictions[i])),
            ]
            for i, case in enumerate(report.cases)
        ],
    )
    _write_csv(
        out / "subgroups.csv",
        ["group", "n", "mean_abs_movement", "no_change_rmse", "linear_rmse", "be_rmse", "gain"],
        [
            [s.group, s.n, repr(s.mean_abs_movement), repr(s.no_change_rmse),
             repr(s.linear_rmse), repr(s.be_rmse), repr(s.gain)]
            for s in report.group_summaries
        ],
    )
    print(f"replay complete: {out}")
    return 0


def cmd_trace_verify(args) -> int:
    events = read_trace(args.trace)
    final = verify_trace(events)
    print(f"trace verified: L={final.log_odds!r} S={final.stance!r} ({len(events)} events)")
    return 0


if __name__ == "__main__":
    entrypoint()
