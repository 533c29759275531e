"""One benchmark episode in a fresh interpreter; started by ``run.py``.

    python3 perfbench/episode.py WORKLOAD INPUTS.json WORKDIR RESULT.json
        [--trace] [--checks] [--spans SPANS.jsonl]

Loads the generated inputs, notes (on the system-wide monotonic clock)
when they are ready, runs the workload once and writes a JSON result.  The
speed sampler runs from just after numpy is imported; every time in the
result is given both as measured (less the sampler's own time) and at
reference speed (see ``speed.py``).  ``--trace`` runs the episode under the
per-layer tracer, without the sampler, so spans hold no sampler time.
``--checks`` then repeats the episode in this process, untimed, to check
that a second run gives the same output digest, and checks that a trace
with one tampered contribution fails verification.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("inputs", type=Path)
    parser.add_argument("workdir", type=Path)
    parser.add_argument("result", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--checks", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    import speed

    sampler_started = time.monotonic()
    sampler = speed.SpeedSampler().start()
    sampled_from = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import tracer as tracing
    import workloads as wl

    workload = wl.WORKLOADS[args.workload]
    inputs = json.loads(args.inputs.read_text())
    prepared = workload.prepare(inputs)
    ready, ready_perf = time.monotonic(), time.perf_counter()

    tally = wl.Tally()
    ep = wl.Episode(tally=tally, workdir=args.workdir / "run")
    ep.workdir.mkdir(parents=True)
    tracer = tracing.Tracer(keep_spans=args.spans is not None) if args.trace else None
    if tracer:
        sampler.stop()
    patches = tracer.install() if tracer else None
    try:
        start = time.perf_counter()
        workload.episode(prepared, ep)
        end = time.perf_counter()
    finally:
        if patches:
            patches.restore()
    if not tracer:
        sampler.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.checks:
        again = wl.Episode(tally=tally, workdir=args.workdir / "repeat")
        again.workdir.mkdir()
        workload.episode(prepared, again)
        tally.check(again.digest == ep.digest, "a repeated run in the same process gave a different output digest")
        if workload.writes_traces:
            rng = random.Random(f"perfbench/tamper/{inputs['seed']}")
            wl.tamper_check(rng.choice(ep.traces), rng, args.workdir, ep)

    if tracer and args.spans:
        with open(args.spans, "w", encoding="utf-8") as handle:
            for span_id, parent, name, begin, finish, own in tracer.spans:
                handle.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                         "start": begin, "end": finish, "self_s": own}) + "\n")
    # Before the sampler ran (interpreter start, numpy import) the speed of
    # its first sample applies.
    first_scale = speed.REFERENCE_S / sampler.kernel_s[0]
    args.result.write_text(json.dumps({
        "ready": ready,
        "sampler_started": sampler_started,
        "first_scale": first_scale,
        "sampled_setup_s": sampler.raw(sampled_from, ready_perf),
        "sampled_setup_ref_s": sampler.normalised(sampled_from, ready_perf),
        "wall_s": sampler.raw(start, end),
        "wall_ref_s": sampler.normalised(start, end),
        "latencies": [sampler.raw(a, b) for a, b in ep.latencies],
        "latencies_ref": [sampler.normalised(a, b) for a, b in ep.latencies],
        "verify_s": sum(sampler.raw(a, b) for a, b in ep.verify_intervals),
        "verify_ref_s": sum(sampler.normalised(a, b) for a, b in ep.verify_intervals),
        "verify_events": ep.verify_events,
        "rss_mb": rss_mb,
        "digest": ep.digest,
        "props": ep.props,
        "attempted": tally.attempted,
        "failures": tally.failures,
        "layers": tracer.metrics() if tracer else None,
        "untraced_functions": patches.missing if patches else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
