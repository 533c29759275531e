"""Golden-output regression: the default ``credence sweep``, ``credence
debate`` and ``credence replay`` must keep writing byte-identical files.

The README promises identical outputs for identical config snapshots, and
refactors of the judgement, memory and belief-update paths are checked
against that promise.  The digests below were recorded once from the
default commands (no ``--config``, no ``--seed``); neither command writes
an absolute path, so they do not depend on the output directory.  Replay
reads a case file generated here from a fixed seed; its
``resolved_config.json`` holds that file's path and is left out.  A
failing test means an output byte changed: find out why before touching a
digest.  The shared sweep/debate ``resolved_config.json`` digest was
re-recorded once, when the unread ``engine`` section and
``ports.generator`` were removed and the ``ports.scorer`` default became
``builtin``; no other output byte changed then.  The 34 sweep/debate
trace digests were re-recorded once, when deduplication similarity
became the exact cosine of integer trigram counts; only ``similarity``
values in ``resolved`` events changed then (1,338 of 11,777 events, by
at most 4.6e-16 relative), and every CSV and config digest held.

That ``resolved_config.json`` holds every config key with its default,
and most defaults are read from the signatures of the run objects that
take them (see ``credence.config``).  Its digest is therefore the guard
for every default value and its type: a default changed in a run object
changes this digest.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from credence.cli import main as cli_main

GOLDEN_SHA256 = {
    'sweep': {
        'resolved_config.json': 'f7825cb1861c345c561480ffd2c082ef7cdcaba2a13709e8682522aef5687216',
        'sweep_finals.csv': '128a45da4f24917b7dd9fe0c85525c53ad6430e8804de46e4c4967eea1522c4b',
        'sweep_trajectories.csv': 'd0dd720dfff16598f3b3f03ff13f34c6004d8845b813ebf74eda25ed594ad967',
        'traces/sweep_a_0.2.jsonl': '3357f064f90003c864e16f2849b87e5f66af527a8ece2a25223415a7a624d1c4',
        'traces/sweep_a_0.4.jsonl': '947262b739e0d6115f3e353f1ab473a1aff6f5d7321c9c3edac629bc650a2dbf',
        'traces/sweep_a_0.6.jsonl': '649863841aef2f0dfe099a91c58c356d854fd72ef2669375c1aed12a28b97fa3',
        'traces/sweep_a_0.8.jsonl': '59f055e01e4d40b47786354199ccf908c260b211a65b68026603086ec9c4a49e',
        'traces/sweep_a_1.0.jsonl': 'd27692c5d8bf510220086d36cae05fed5021ca0b0a72ff0e0e645b182ebd43b4',
        'traces/sweep_u_0.2.jsonl': '8dd9f5be44e348bcd2abb1ad05f3fe055ba00016db6b94128617fe88a9bd0787',
        'traces/sweep_u_0.4.jsonl': 'bb0508cc2453087c949d1b07ca203ad6ecfac7fb5cceac578558d6189ec8f9ac',
        'traces/sweep_u_0.6.jsonl': '3265c1358f41f5c71887a551538603d25260decab86561e50169d8c3bca1c4ca',
        'traces/sweep_u_0.8.jsonl': 'b412963ee6c3c4e1727b917cbfd8b6646229d608e4574df4ef0211fb0f2e9810',
        'traces/sweep_u_1.0.jsonl': 'b81231cac6103dc0fc04e8b28d5a2a17ffb5b18ccc31a7420d6c492340d9973a',
    },
    'debate': {
        'convergence.csv': '0334eb51d0efb47bbda0d5aa7b1eb145c7fa265e9a99891d17768a794e1abd63',
        'debate_metrics.csv': 'e32223f995aeec92af61b611b5433fdeb6aa0d4e413b35b6a27763a1cfa257d1',
        'debate_summary.csv': '0838039debd1a3e1ccfeffff39bb50abc4c470e90099f2122b598c75168d8fdd',
        'resolved_config.json': 'f7825cb1861c345c561480ffd2c082ef7cdcaba2a13709e8682522aef5687216',
        'series.csv': 'a7a1964ed41ec09f5aa9405c72566cc68cb5b4f84ef697babdbf7c7f874fcc6b',
        'traces/debate_open-open_t0_con.jsonl': 'd876d404e26386e3ee1d8e377b4768e212d08f6900f40ee380317b36d096b5c0',
        'traces/debate_open-open_t0_pro.jsonl': '8f2dd7d0f61de0439365ef0dc6b3cac2694d2659df0b30fb8cafdf1f7bee0001',
        'traces/debate_open-open_t1_con.jsonl': '1c7436c8723d6e74dc13cb3c0c748682977a126a9066a09b03ca439b44373a86',
        'traces/debate_open-open_t1_pro.jsonl': '47ed745ea77295b2278019eae38520f8d7210e9ccbaa54d0e3d65d676430bb63',
        'traces/debate_open-open_t2_con.jsonl': '434c76da324fb07336f6cfadc30014491656bfb4f619e5ac60bf97342592d899',
        'traces/debate_open-open_t2_pro.jsonl': '8da68ec5f759fb35556c4bdc16ebcaadb1726022f49e5960d44b9f68244c8f6b',
        'traces/debate_open-stubborn_t0_con.jsonl': '7a3a7e9a6dc68bb1f85a40ecbd5f4bc254dd61fc57215b201171c9e8784c8347',
        'traces/debate_open-stubborn_t0_pro.jsonl': '49238627ad21fa61fdc51f2ab2d25595c76964c2eb0a65bc7fa6894fe4d6e81e',
        'traces/debate_open-stubborn_t1_con.jsonl': 'e2d726234949142d42239b46c738577e167245a4d523132cd9824229768bccb7',
        'traces/debate_open-stubborn_t1_pro.jsonl': '67baac1448a9bd44fabff5099d6a362c58a411752b34a550e525cd0bef48707f',
        'traces/debate_open-stubborn_t2_con.jsonl': 'df9adef17ce39483378c722b5f008f68314565253279cebef7568a78356cc4d0',
        'traces/debate_open-stubborn_t2_pro.jsonl': 'ef75e614d603975e6cd20fdd81fb0e8ea61d18a1cf81fc59c2960030430c73e9',
        'traces/debate_stubborn-open_t0_con.jsonl': '9d41098ded146dc4dc5e33242e3abe2121e523abaff9c2901cf9d7029a2e6039',
        'traces/debate_stubborn-open_t0_pro.jsonl': 'db0c375b5df65a7ba326a626adb14f301ae8625ac52ac7f97588fea081c00f20',
        'traces/debate_stubborn-open_t1_con.jsonl': '23380040bd4d27f71581604b7f90ea2511dfbb531885d6e4911b995197fb3262',
        'traces/debate_stubborn-open_t1_pro.jsonl': '91c521f3fa0780086908603f33d5c7e90e72c5b938678b62b8e4586a640bae8b',
        'traces/debate_stubborn-open_t2_con.jsonl': 'ba39e148d1746a032e199549b767e059e28ecb05e10145df9d6df512e46432ba',
        'traces/debate_stubborn-open_t2_pro.jsonl': 'b02ad3cd2e3e49670927bcc07d333c3da9c840d70773a27fb1d1a980afb254a4',
        'traces/debate_stubborn-stubborn_t0_con.jsonl': '07828a179af374658260f50be9e6e05487b94c9bfa72b762a2a436eaab39ad9b',
        'traces/debate_stubborn-stubborn_t0_pro.jsonl': '15394c9b27b71f87ae35aa10d16847a79f3295d2223c79932c2b188945d5653e',
        'traces/debate_stubborn-stubborn_t1_con.jsonl': '62b65c2012b84220345bf15f9b831253ca42610b6653dac44bdcec7d6a30ee11',
        'traces/debate_stubborn-stubborn_t1_pro.jsonl': 'e98fb73ac2ff397660156cce4e80e93438644091895004008e5b20a5e0f4afec',
        'traces/debate_stubborn-stubborn_t2_con.jsonl': '045363735b7b125d6e96552cec7c3893eb9d3b8d2945fce9c0c2b4ad1d994748',
        'traces/debate_stubborn-stubborn_t2_pro.jsonl': '38a8b1de434bb34f1ee5d039658a5fcda86693deecc03a6cdae7627aa74a41f7',
    },
}


def _digests(root: Path) -> dict:
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("command", sorted(GOLDEN_SHA256))
def test_default_command_outputs_are_byte_identical(command, tmp_path, capsys):
    out = tmp_path / command
    assert cli_main([command, "--out", str(out)]) == 0
    assert _digests(out) == GOLDEN_SHA256[command]


def _write_mixed_cases(path: Path, n: int = 40, seed: int = 11) -> None:
    """Cases mixing hinted items, unhinted items (scored by the builtin
    scorer) and raw-text items (a scripted CLAIM line among other lines,
    sometimes with a malformed-hint line).  Claims are drawn from twelve
    phrases, some with one word appended, so exact repeats and
    paraphrases reach deduplication."""
    rng = random.Random(seed)
    words = ["rent", "transit", "budget", "parks", "audit", "schools", "tax", "housing", "safety", "jobs"]
    claims = [" ".join(rng.choice(words) for _ in range(4)) for _ in range(12)]
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(n):
            evidence = []
            for _ in range(rng.randint(2, 7)):
                claim = rng.choice(claims)
                if rng.random() < 0.3:
                    claim += " " + rng.choice(words)
                polarity = rng.choice((-1, 1))
                kind = rng.randrange(3)
                if kind == 0:
                    evidence.append({"claim": claim, "polarity": polarity, "strength": rng.random()})
                elif kind == 1:
                    evidence.append({"claim": claim, "polarity": polarity})
                else:
                    sign = "+" if polarity > 0 else "-"
                    lines = [f"CLAIM {sign}{rng.random()!r}: {claim}", "a line that is not a claim"]
                    if rng.random() < 0.3:
                        lines.append(f"CLAIM +high: {claim} again")
                    evidence.append({"text": "\n".join(lines)})
            row = {
                "participant": f"p{i}",
                "group": f"g{i % 6}",
                "topic": f"topic {i % 2}",
                "initial_likert": rng.randint(1, 6),
                "evidence": evidence,
            }
            if rng.random() < 0.5:
                row["final_likert"] = rng.randint(1, 6)
            else:
                row["final_stance"] = rng.uniform(-1.0, 1.0)
            handle.write(json.dumps(row) + "\n")


GOLDEN_REPLAY_SHA256 = {
    'folds.csv': '8dbff0134f984f3be740c3370f21bc4cd4205f57b57352f8b93f170a71bdf585',
    'predictions.csv': '70cc4f918539aefebce4b012843088d7acf537f6c79da49396f102773a2aac27',
    'subgroups.csv': 'e4de5ba18f5a50ffb51652642ef7e74dd83a044c6c5ca60a5e013f0c12465146',
    'surface.csv': 'c8628ec76377893afbcb08568ba2416748b2fe5874b81a352e502dbb8e3eed90',
}


def test_default_replay_outputs_are_byte_identical(tmp_path, capsys):
    cases = tmp_path / "cases.jsonl"
    _write_mixed_cases(cases)
    out = tmp_path / "replay"
    assert cli_main(["replay", "--cases", str(cases), "--out", str(out)]) == 0
    digests = _digests(out)
    del digests["resolved_config.json"]  # holds the case file's path
    assert digests == GOLDEN_REPLAY_SHA256
