"""Benchmark of the credence engine.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload dialogue_fresh --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

The program is imported from ``src/`` of the checkout, so nothing has to be
installed.  A run generates its inputs from the seed (set-up, repeated
three times), then runs episodes of the workload for ``--seconds`` (at
least two), each in a fresh interpreter started by this process and waited
for, one at a time; the first one also runs the checks that need a repeat
in one process.  It checks every output and prints a report
followed, as its last line, by one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Times are reported at reference speed: a speed sampler (``speed.py``)
interleaves a fixed kernel with the work every 0.05 s, and each interval of
work is scaled by the kernel's time around it.  On a shared VM whose CPU
speed drifts by tens of percent this keeps run-to-run spread to a few
percent; the report shows the times as measured next to them.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
from untraced episodes.  With ``--trace 1`` untraced and traced episodes
alternate; the metrics are the per-layer ones of BENCHMARK.json, medians
over the traced episodes, with the tracing overhead (traced minus untraced
median wall time, as measured).  Each run also writes a record
(environment, input properties, output digests, every metric) to
``.perfbench/results/`` and, for traced runs, the spans of the first
traced episode to ``.perfbench/spans/``.

End-to-end metrics printed in the report:
  setup_s         median input generation time, plus the median time from
                  starting an episode's interpreter to its inputs being ready
  wall_s          median episode time, inputs ready to outputs checked
  message_p50_ms  nearest-rank percentiles over all untraced episodes of the
  message_p99_ms  latency of each process_message call (dialogues, simulate)
                  or, on replay, of each case's accepted_records call
  verify_events_per_s  trace events read and verified per second by
                  ``credence trace-verify`` (workloads that write traces)
  peak_rss_mb     median over untraced episodes of the episode's peak RSS
  error_rate      failed over attempted operations
``verify_events_per_s`` and ``error_rate`` are not end-to-end metrics in
BENCHMARK.json, whose metrics must be non-zero on every workload: verify
throughput is the per-layer ``cli.trace_verify.events_per_s`` and the
error rate is carried by ``failed``/``attempted``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 3
RUN_BUDGET_S = 165  # a run must end within 180 s, even if an episode hangs
MIN_EPISODES = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("dialogue_fresh", "dialogue_echo", "simulate", "replay")


def _percentile(values, p):
    """Nearest-rank percentile: a value that was actually measured."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unresolved"


def _source_digest() -> str:
    sha = hashlib.sha256()
    for path in sorted((SRC / "credence").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            sha.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def _environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": _nproc(),
        "cpu": cpu,
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def _episode(workload, index, inputs: Path, scratch: Path, trace: bool, spans, checks: bool, deadline, tally):
    """Run one episode in a fresh interpreter and return its result, or None
    if it failed or did not finish before the deadline (monotonic clock)."""
    workdir = scratch / f"ep{index}"
    result = scratch / f"ep{index}.json"
    argv = [sys.executable, str(HERE / "episode.py"), workload, str(inputs), str(workdir), str(result)]
    if trace:
        argv.append("--trace")
    if checks:
        argv.append("--checks")
    if spans is not None:
        argv += ["--spans", str(spans)]
    spawned = time.monotonic()
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        tally.check(False, f"episode {index} did not finish within the run's {RUN_BUDGET_S} s budget")
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not tally.check(done.returncode == 0 and result.is_file(), f"episode {index} exited {done.returncode}: {done.stderr[-2000:]}"):
        return None
    record = json.loads(result.read_text())
    unsampled = record["sampler_started"] - spawned  # interpreter start and numpy import
    record["setup_s"] = unsampled + record["sampled_setup_s"]
    record["setup_ref_s"] = unsampled * record["first_scale"] + record["sampled_setup_ref_s"]
    tally.attempted += record["attempted"]
    tally.failures += record["failures"]
    return record


def run(args) -> int:
    if not (SRC / "credence" / "__init__.py").is_file():
        print(f"error: no credence sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(_nproc())
    sys.path.insert(0, str(SRC))
    import credence

    if Path(credence.__file__).resolve().parent != SRC / "credence":
        print(f"error: imported credence from {credence.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import speed
    import workloads as wl

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = wl.WORKLOADS[args.workload]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = STATE / "tmp" / f"{stem}-{os.getpid()}"
    spans_path = STATE / "spans" / f"{stem}.jsonl"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tally = wl.Tally()
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        generate_times, generate_ref = [], []
        with speed.SpeedSampler() as sampler:
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                inputs = workload.generate(random.Random(f"perfbench/{args.workload}/{args.seed}"), args.size, scratch)
                end = time.perf_counter()
                generate_times.append(sampler.raw(start, end))
                generate_ref.append(sampler.normalised(start, end))
        inputs_path = scratch / "inputs.json"
        inputs_path.write_text(json.dumps({**inputs, "seed": args.seed}))

        untraced, traced = [], []
        started = time.perf_counter()
        while True:
            want_trace = args.trace == 1 and len(traced) < len(untraced)
            spans = spans_path if want_trace and not traced else None
            index = len(untraced) + len(traced)
            # The first episode also runs the checks that need a repeat in one process.
            record = _episode(args.workload, index, inputs_path, scratch, want_trace, spans, index == 0, deadline, tally)
            if record is None:
                break
            (traced if want_trace else untraced).append(record)
            enough = len(traced) >= 1 if args.trace else len(untraced) >= MIN_EPISODES
            if enough and time.perf_counter() - started >= args.seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if not untraced or (args.trace and not traced):
        print("error: no episode completed", file=sys.stderr)
        for failure in tally.failures[:20]:
            print(f"FAILED: {failure}", file=sys.stderr)
        return 1

    episodes = untraced + traced
    for i, record in enumerate(episodes[1:], start=1):
        tally.check(record["digest"] == episodes[0]["digest"], f"episode {i} output digest differs from episode 0")
    messages = sum(len(r["latencies"]) for r in untraced)
    tally.check(messages > 0, "no message latency was recorded")

    def timings(ref: bool) -> dict:
        """Time metrics at reference speed (ref) or as measured."""
        suffix = "_ref" if ref else ""
        latencies = [x for r in untraced for x in r["latencies" + suffix]]
        verify_s = sum(r["verify" + suffix + "_s"] for r in untraced)
        return {
            "setup_s": statistics.median(generate_ref if ref else generate_times)
            + statistics.median(r["setup" + suffix + "_s"] for r in episodes),
            "wall_s": statistics.median(r["wall" + suffix + "_s"] for r in untraced),
            "message_p50_ms": 1e3 * _percentile(latencies, 50) if latencies else 0.0,
            "message_p99_ms": 1e3 * _percentile(latencies, 99) if latencies else 0.0,
            "verify_events_per_s": sum(r["verify_events"] for r in untraced) / verify_s if verify_s else 0.0,
        }

    end_to_end = {
        **timings(ref=True),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in untraced),
        "error_rate": len(tally.failures) / tally.attempted,
    }
    as_measured = timings(ref=False)
    per_layer = {}
    if traced:
        layers = [r["layers"] for r in traced]
        per_layer = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        per_layer["cli.trace_verify.events_per_s"] = end_to_end["verify_events_per_s"]
        untraced_wall = as_measured["wall_s"]
        per_layer["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - untraced_wall
        per_layer["trace.overhead_share"] = per_layer["trace.overhead_s"] / untraced_wall

    group = "per_layer" if args.trace else "end_to_end"
    values = per_layer if args.trace else end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench[group]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units.update({"verify_events_per_s": "1/s", "error_rate": "share"})

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "environment": _environment(args.seed),
        "setup": {
            "generate_s": generate_times,
            "generate_ref_s": generate_ref,
            "episode_ready_s": [r["setup_s"] for r in episodes],
            "episode_ready_ref_s": [r["setup_ref_s"] for r in episodes],
        },
        "inputs": {**inputs["props"], **episodes[0]["props"]},
        "episodes": {
            "untraced_wall_s": [r["wall_s"] for r in untraced],
            "untraced_wall_ref_s": [r["wall_ref_s"] for r in untraced],
            "traced_wall_s": [r["wall_s"] for r in traced],
            "messages": messages,
        },
        "digests": [r["digest"] for r in episodes],
        "end_to_end": end_to_end,
        "as_measured": as_measured,
        "per_layer": per_layer,
        "attempted": tally.attempted,
        "failures": tally.failures[:20],
        "untraced_functions": traced[0]["untraced_functions"] if traced else [],
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  episodes {len(untraced)} untraced, {len(traced)} traced")
    print(f"inputs {json.dumps(record['inputs'])}")
    print(f"environment {json.dumps(record['environment'])}")
    print(f"digests {' '.join(sorted(set(record['digests'])))}")
    print(f"end to end, at reference speed (as measured)  [{messages} messages]")
    for name, value in end_to_end.items():
        measured = f"  ({as_measured[name]:.6g})" if name in as_measured else ""
        print(f"  {name:<22} {value:.6g} {units[name]}{measured}")
    for name in (m["name"] for m in bench["per_layer"]) if traced else ():
        print(f"  {name:<40} {per_layer[name]:.6g} {units[name]}")
    for failure in tally.failures[:20]:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }))
    return 0


def smoke_problems(workload: str, trace: int) -> list[str]:
    """Run one workload at smoke size; list what is missing or failed."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        return [f"exit {done.returncode}: {done.stderr[-2000:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
    problems = []
    if set(result["metrics"]) != expected:
        problems.append(f"metrics {sorted(set(result['metrics']) ^ expected)} missing or unexpected")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"checks failed: {done.stdout[-2000:]}")
    record = json.loads((STATE / "results" / f"{workload}-seed1-trace{trace}.json").read_text())
    if not {"verify_events_per_s", "error_rate"} <= set(record["end_to_end"]):
        problems.append("record lacks verify_events_per_s or error_rate")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--smoke", action="store_true", help="run every workload at smoke size and check the results")
    args = parser.parse_args(argv)
    if args.smoke:
        failed = False
        for workload in WORKLOAD_NAMES:
            for trace in (0, 1):
                problems = smoke_problems(workload, trace)
                failed = failed or bool(problems)
                print(f"{workload} trace={trace}: {'ok' if not problems else '; '.join(problems)}")
        return 1 if failed else 0
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
