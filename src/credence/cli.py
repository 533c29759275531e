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
from pathlib import Path

from . import config as config_mod
from .exceptions import ConfigError, ContractError, CredenceError, TraceVerificationError
from .engine import read_trace, verify_trace, write_trace
from .extraction import CLAIM_LINE
from .judgement import BuiltinScorer, ServiceScorer
from .extraction import ScriptedExtractor, ServiceExtractor
from .replay import CalibrationGrid, build_replay_report, load_cases_jsonl
from .simulation import (
    DebateConfig,
    PROFILE_PRESETS,
    SweepConfig,
    load_scripted_claims,
    run_scripted_opponent_sweep,
    run_two_agent_debate,
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
    except (ConfigError, ContractError) as exc:
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


def cmd_sweep(args) -> int:
    cfg = config_mod.load_config(args.config)
    section = cfg["sweep"]
    if args.seed is not None:
        section["rng_seed"] = args.seed
    if not section["grid"]:
        raise ConfigError("sweep.grid is empty")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config_mod.write_snapshot(cfg, out)

    corpus = load_scripted_claims(config_mod.load_corpus_text(section["seed_file"], "seeds.txt"))
    script = _script_lines(config_mod.load_corpus_text(section["opponent_file"], "opponent_con.txt"))
    sweep_config = SweepConfig(
        topic=section["topic"],
        rounds=section["rounds"],
        seeds_per_side=section["seeds_per_side"],
        target=section["target"],
        fixed_u=section["fixed_u"],
        fixed_a=section["fixed_a"],
        theta=section["theta"],
        theta_self=section["theta_self"],
        k=section["k"],
        rng_seed=section["rng_seed"],
    )

    trajectory_rows = []
    final_rows = []
    trace_dir = out / "traces"
    trace_dir.mkdir(exist_ok=True)
    for param in ("u", "a"):
        runs = run_scripted_opponent_sweep(sweep_config, section["grid"], param, corpus, script)
        for run, agent in runs:
            for round_index, stance in enumerate(run.stances):
                trajectory_rows.append([param, run.value, round_index, repr(stance)])
            final_rows.append([param, run.value, repr(run.final_stance)])
            write_trace(trace_dir / f"sweep_{param}_{run.value}.jsonl", agent.trace)
    _write_csv(out / "sweep_trajectories.csv", ["param", "value", "round", "stance"], trajectory_rows)
    _write_csv(out / "sweep_finals.csv", ["param", "value", "final_stance"], final_rows)
    print(f"sweep complete: {out}")
    return 0


def cmd_debate(args) -> int:
    cfg = config_mod.load_config(args.config)
    section = cfg["debate"]
    if args.seed is not None:
        section["rng_seed"] = args.seed
    if section["trials"] < 1:
        raise ConfigError("debate.trials must be >= 1")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config_mod.write_snapshot(cfg, out)

    corpus = load_scripted_claims(config_mod.load_corpus_text(section["seed_file"], "seeds.txt"))
    trace_dir = out / "traces"
    trace_dir.mkdir(exist_ok=True)

    metric_rows = []
    convergence_rows = []
    series_rows = []
    summary_rows = []
    for pairing in section["pairings"]:
        try:
            pro_name, con_name = pairing.split("/")
            pro_profile = PROFILE_PRESETS[pro_name]
            con_profile = PROFILE_PRESETS[con_name]
        except (ValueError, KeyError):
            raise ConfigError(f"unknown pairing {pairing!r}; use e.g. 'open/stubborn'")
        debate_config = DebateConfig(
            topic=section["topic"],
            pro_profile=pro_profile,
            con_profile=con_profile,
            rounds=section["rounds"],
            seeds_per_side=section["seeds_per_side"],
            pro_target=section["targets"][0],
            con_target=section["targets"][1],
            trials=section["trials"],
            rng_seed=section["rng_seed"],
            theta=section["theta"],
            theta_self=section["theta_self"],
            k=section["k"],
        )
        result = run_two_agent_debate(debate_config, corpus)
        slug = pairing.replace("/", "-")
        for trial, metrics in enumerate(result.per_trial_metrics):
            metric_rows.append(
                [
                    section["topic"],
                    pairing,
                    trial,
                    repr(metrics.final_pro),
                    repr(metrics.final_con),
                    repr(metrics.abs_final_gap),
                    repr(metrics.gap_reduction),
                    repr(metrics.mean_abs_shift),
                    repr(metrics.centre_shift),
                    repr(metrics.crossing_rate),
                ]
            )
        summary = result.metrics
        summary_rows.append(
            [
                section["topic"],
                pairing,
                section["trials"],
                repr(summary.final_pro),
                repr(summary.final_con),
                repr(summary.abs_final_gap),
                repr(summary.gap_reduction),
                repr(summary.mean_abs_shift),
                repr(summary.centre_shift),
                repr(summary.crossing_rate),
            ]
        )
        convergence_rows.append([section["topic"], pairing, repr(summary.convergence)])
        for trial, series in enumerate(result.series):
            for round_index, (pro_stance, con_stance) in enumerate(series):
                series_rows.append([pairing, trial, round_index, "pro", repr(pro_stance)])
                series_rows.append([pairing, trial, round_index, "con", repr(con_stance)])
        for trial, (pro_trace, con_trace) in enumerate(result.traces):
            write_trace(trace_dir / f"debate_{slug}_t{trial}_pro.jsonl", pro_trace)
            write_trace(trace_dir / f"debate_{slug}_t{trial}_con.jsonl", con_trace)

    _write_csv(
        out / "debate_metrics.csv",
        [
            "topic", "setup", "trial", "final_pro", "final_con", "abs_final_gap",
            "gap_reduction", "mean_abs_shift", "centre_shift", "crossing",
        ],
        metric_rows,
    )
    _write_csv(
        out / "debate_summary.csv",
        [
            "topic", "setup", "n", "final_pro", "final_con", "abs_final_gap",
            "gap_reduction", "mean_abs_shift", "centre_shift", "crossing_rate",
        ],
        summary_rows,
    )
    _write_csv(out / "convergence.csv", ["topic", "pairing", "convergence"], convergence_rows)
    _write_csv(out / "series.csv", ["pairing", "trial", "round", "agent", "stance"], series_rows)
    print(f"debate complete: {out}")
    return 0


def _build_scorer(ports: dict):
    kind = ports["scorer"]
    url = os.environ.get("CREDENCE_SCORER_URL") or ports["scorer_url"]
    if kind == "service":
        if not url:
            raise ConfigError("ports.scorer=service needs scorer_url or CREDENCE_SCORER_URL")
        return ServiceScorer(url, timeout=ports["timeout"], retries=ports["retries"])
    # Strength hints are read from the candidates themselves, so "table"
    # scores the unhinted ones exactly as "builtin" does.
    if kind in ("table", "builtin"):
        return BuiltinScorer()
    raise ConfigError(f"unknown scorer kind {kind!r}")


def _build_extractor(ports: dict):
    kind = ports["extractor"]
    url = os.environ.get("CREDENCE_EXTRACTOR_URL") or ports["extractor_url"]
    if kind == "service":
        if not url:
            raise ConfigError("ports.extractor=service needs extractor_url or CREDENCE_EXTRACTOR_URL")
        return ServiceExtractor(url, timeout=ports["timeout"], retries=ports["retries"])
    if kind == "scripted":
        return ScriptedExtractor()
    raise ConfigError(f"unknown extractor kind {kind!r}")


def cmd_replay(args) -> int:
    cfg = config_mod.load_config(args.config)
    section = cfg["replay"]
    if args.seed is not None:
        section["seed"] = args.seed
    if args.key is not None:
        section["key"] = args.key
    case_file = args.cases or section["case_file"]
    if not case_file:
        raise ConfigError("replay needs a case file (--cases or replay.case_file)")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg["replay"]["case_file"] = str(case_file)
    config_mod.write_snapshot(cfg, out)

    cases, errors = load_cases_jsonl(case_file)
    for line_number, message in errors:
        print(f"{case_file}:{line_number}: {message}", file=sys.stderr)
    if errors and args.strict:
        raise ContractError(f"{len(errors)} malformed case lines (strict mode)")
    if not cases:
        raise ContractError(f"no valid replay cases in {case_file}")

    grid = CalibrationGrid(u_values=tuple(section["u_grid"]), a_values=tuple(section["a_grid"]))
    scorer = _build_scorer(cfg["ports"])
    extractor = _build_extractor(cfg["ports"])
    report = build_replay_report(
        cases,
        grid,
        key=section["key"],
        folds=section["folds"],
        seed=section["seed"],
        theta=section["theta"],
        scorer=scorer,
        extractor=extractor,
        eps_weak=section["eps_weak"],
        clip_bound=section["clip"],
    )

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
