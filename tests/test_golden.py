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
``builtin``; no other output byte changed then.

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
        'traces/sweep_a_0.2.jsonl': 'f85f52ccb8c5e5013f53aa2108fe8ad1885a2165e737c7189db137959f37f9db',
        'traces/sweep_a_0.4.jsonl': 'bf5fcf44f3d68e8ec72a391e1b6a91727d5d3ac2e1439837a6162902265903c5',
        'traces/sweep_a_0.6.jsonl': '8e0ed39d92664a4d3502c4a96ef28812c126f345a5c4e0157f98a39267a18048',
        'traces/sweep_a_0.8.jsonl': 'd4b128ae1b57e1463315777f35ce2dd1e276ce5a87580d193d1157ed0cd0c22d',
        'traces/sweep_a_1.0.jsonl': '7782bb386ace0212c02b84453aa7c89be1172500903420b1fd1b8ff7808255b9',
        'traces/sweep_u_0.2.jsonl': '8fb5d1e1d637c34f21affdf6a9841eee8891d64217d009f1200a13fbb986db93',
        'traces/sweep_u_0.4.jsonl': '75cb864921eefb0cf9083bc40dde49a62b00067e2fafb7fb9de62d3919dd7690',
        'traces/sweep_u_0.6.jsonl': '83b8201fe254b921e2bb9d320cd5d330126266bcc7f94edf22834b480b05d609',
        'traces/sweep_u_0.8.jsonl': 'cc2651e11f1f691e778e6e52ef621fefeda78a1cf97cdd24a80ac08b01c9240c',
        'traces/sweep_u_1.0.jsonl': 'b4c6d31e99b5b45910c4fe6f74256ff415dfbaf203f633df3856ab007063fb95',
    },
    'debate': {
        'convergence.csv': '0334eb51d0efb47bbda0d5aa7b1eb145c7fa265e9a99891d17768a794e1abd63',
        'debate_metrics.csv': 'e32223f995aeec92af61b611b5433fdeb6aa0d4e413b35b6a27763a1cfa257d1',
        'debate_summary.csv': '0838039debd1a3e1ccfeffff39bb50abc4c470e90099f2122b598c75168d8fdd',
        'resolved_config.json': 'f7825cb1861c345c561480ffd2c082ef7cdcaba2a13709e8682522aef5687216',
        'series.csv': 'a7a1964ed41ec09f5aa9405c72566cc68cb5b4f84ef697babdbf7c7f874fcc6b',
        'traces/debate_open-open_t0_con.jsonl': 'a3312dc9813d345a790960375166e2aaa6c1da41e53043a922f599b3ae865361',
        'traces/debate_open-open_t0_pro.jsonl': '79474c29c9b457cdc5602222552b2f175f1a7a621390b2802bc4b6508150016d',
        'traces/debate_open-open_t1_con.jsonl': '08e9c10efa7c25dfa9a63c372883b2163674ef48382800230347243e3cf813a6',
        'traces/debate_open-open_t1_pro.jsonl': 'eac3e60b34754a570a68be3d58fa1daa251e127e1607e610c138d2230ce5051c',
        'traces/debate_open-open_t2_con.jsonl': 'a1bdd895627f908e5a4f902d012e65fabb73d05f8a3816e3dbcfbcbd14556fe8',
        'traces/debate_open-open_t2_pro.jsonl': 'e95e0ad6e3eb11a577fbf3fcbdbb856359e87f3cfb0b683fd030bb64b28a8f4b',
        'traces/debate_open-stubborn_t0_con.jsonl': 'f2a61c981918749fd893a88b0175519922d6dd1b0eb8929217839fb115078025',
        'traces/debate_open-stubborn_t0_pro.jsonl': 'b4eed37eababcf62f648693b4562b764201f8fb313fd3ce2485b45ad19a5ab87',
        'traces/debate_open-stubborn_t1_con.jsonl': '07acd890a7503b9e4af986a62e39798455acc0fa2d1f22586891edf3d4907987',
        'traces/debate_open-stubborn_t1_pro.jsonl': 'bb85aa69683ff0da05f392d09215e6d81407ebc99e61bf2e0dccbffe2999c4b8',
        'traces/debate_open-stubborn_t2_con.jsonl': 'c3551b5d17c20736806e4bf3697cc0f727ea743b9318485a9bc519b0d5ccb2f5',
        'traces/debate_open-stubborn_t2_pro.jsonl': '061867217aca6a5498772a1fd19d5449bbcbe38d31608167c46febae877304c9',
        'traces/debate_stubborn-open_t0_con.jsonl': '2bbdd50e93621a7100880e67076740353ee5d244acd17448693a6b80c1707def',
        'traces/debate_stubborn-open_t0_pro.jsonl': '6aa87efa2f95f228d4411aff0fc3a3f5b82feb01710480bf41c05153b285132a',
        'traces/debate_stubborn-open_t1_con.jsonl': 'a0c975db1b459eb77c5c119d1278fa94221af8e9caef2a52dc1505e819e271b4',
        'traces/debate_stubborn-open_t1_pro.jsonl': '42afba9a986ab7ac21fe009f6303b288e9b20c6fe665d002e49cc737a5f49bfd',
        'traces/debate_stubborn-open_t2_con.jsonl': '0d84ebfbfd9fda9cb3e52b5afcfadfd64cf3c4000605eaa1fcd872fc7533f745',
        'traces/debate_stubborn-open_t2_pro.jsonl': 'b43117c3315c5072438261c873b3be9315045194c88d3a9c45250fecebf5d039',
        'traces/debate_stubborn-stubborn_t0_con.jsonl': 'b48ff3744f19608136f2d45ab03db73034222b687a06584512261d6da1c6b420',
        'traces/debate_stubborn-stubborn_t0_pro.jsonl': '84c9037d987ea910802368a54c64c90716bb935c8c4e1b57cb62d0057e6b2dfc',
        'traces/debate_stubborn-stubborn_t1_con.jsonl': '800773f77261ce256e28a365fd7f05f51698fd3063586f281db64a99c378df6c',
        'traces/debate_stubborn-stubborn_t1_pro.jsonl': 'bcff601d4d1bbe132c3beddaf1ff97c9620ff2ba926f11a95adae34d39ef9783',
        'traces/debate_stubborn-stubborn_t2_con.jsonl': '3753b704458ee0886b258cf57f257cff7af5c0bd783e754aee002a1aa1d13e03',
        'traces/debate_stubborn-stubborn_t2_pro.jsonl': '53d6b22f91bbae7f1d9a4d82f4f2ee76741c43a7f712a97550ee22cf92cbe230',
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
