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
at most 4.6e-16 relative), and every CSV and config digest held.  They
were re-recorded once more when the trace format gained its header and
wrote one ``stored`` event per ingest and one ``rescaled`` event per seed
rescale: 11,777 events became 5,218, and again every CSV and config
digest held.

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
        'traces/sweep_a_0.2.jsonl': 'b4931ff0b3c1b423d7e661897fc20babbdaa7cc718c0df78e961d2a2b3ef0cdc',
        'traces/sweep_a_0.4.jsonl': '7ef054c1c715628a8c78a1fb77c0d1756458ecedd51b88ea98487dbecf109dbb',
        'traces/sweep_a_0.6.jsonl': 'ddacc6c9c1e83a1bdf1bf1cfeced17baa1b247ec29ca19b46000a48cd3b6ccb2',
        'traces/sweep_a_0.8.jsonl': 'a9272e6dcb05d033e72ec89f4dead2ef1a19e0a97fc92ec667a6d146d8d93a31',
        'traces/sweep_a_1.0.jsonl': 'b2bc6963380da332d90573f53620c0ab7d1fed5ab1fa50d5347ee156fa0f96ce',
        'traces/sweep_u_0.2.jsonl': '3402c115bcf13da4c613d72ecef9a9ba5bbb76e3e0938995d26fade13675111e',
        'traces/sweep_u_0.4.jsonl': '73698f9970ec65ba7061aa59bed383e26cb0f5126326a4f691954fe55c0ee6dd',
        'traces/sweep_u_0.6.jsonl': '566d65dae0647f4ba52843d1e859bfd26a514e8e7d2978214bc00491e624ec4c',
        'traces/sweep_u_0.8.jsonl': '63b6ea1606b11783342eb3cf9e5ca457bbaa3552121fac4c4e4594118b008b1f',
        'traces/sweep_u_1.0.jsonl': '8266469944bd0ba227a587846560c913454ff2e287a7bc53ea39e31b57efe189',
    },
    'debate': {
        'convergence.csv': '0334eb51d0efb47bbda0d5aa7b1eb145c7fa265e9a99891d17768a794e1abd63',
        'debate_metrics.csv': 'e32223f995aeec92af61b611b5433fdeb6aa0d4e413b35b6a27763a1cfa257d1',
        'debate_summary.csv': '0838039debd1a3e1ccfeffff39bb50abc4c470e90099f2122b598c75168d8fdd',
        'resolved_config.json': 'f7825cb1861c345c561480ffd2c082ef7cdcaba2a13709e8682522aef5687216',
        'series.csv': 'a7a1964ed41ec09f5aa9405c72566cc68cb5b4f84ef697babdbf7c7f874fcc6b',
        'traces/debate_open-open_t0_con.jsonl': '93c659741bbeec5c1e85738e1c1799fcce014646f34639866479a14f074dfbb1',
        'traces/debate_open-open_t0_pro.jsonl': '64f38965d06c7e294610092e955c6bc78951e3f145cc5bfa4fdbdd9d8be8b904',
        'traces/debate_open-open_t1_con.jsonl': 'c95352ffa93d7c22719dac163557643c2540b692f4fb7e53bd81440e76dbcad4',
        'traces/debate_open-open_t1_pro.jsonl': '383ce0d002197c26755c0012ac58bdbff786a435e5d60b7365375343ab1c2b70',
        'traces/debate_open-open_t2_con.jsonl': '3afbe73c1cb19a095a8c7dba63381588833bf413aafd057a696e2894493292b1',
        'traces/debate_open-open_t2_pro.jsonl': '76efb7ff88def4fd964ecab1fcc5a9e8692ce8a4cab66977258ffc8109ef59ca',
        'traces/debate_open-stubborn_t0_con.jsonl': 'b4e6838b55e1882d8bcdd241625aa584b685ae20ad7ed1b1ef18728a9967a324',
        'traces/debate_open-stubborn_t0_pro.jsonl': 'c374e78febe85bf836981b51a938810bac4ad5b704af04a4efb9c84aebfeffaf',
        'traces/debate_open-stubborn_t1_con.jsonl': '93ea41c93e044d7a2871f299d29d2aac32c018001b2411120446b3dd8d9293e4',
        'traces/debate_open-stubborn_t1_pro.jsonl': '914fe66586849e8ec35e5037a0be7a4485e5a7632cd306b9145fbde6368ff451',
        'traces/debate_open-stubborn_t2_con.jsonl': '8632c436abbd31918926212bb7681c22d2b0229df9d8035a30800d49e7863e5f',
        'traces/debate_open-stubborn_t2_pro.jsonl': '45dd6f894d5c593ea99c12e8bf9f8e5710d2284aa8e3d14d3285b4ab0ddf4c4a',
        'traces/debate_stubborn-open_t0_con.jsonl': '2d2c525ba300a7f69620c2836e3e83deb4586364db9d70c3133caac117149e8e',
        'traces/debate_stubborn-open_t0_pro.jsonl': 'e820b5f48f9c255b4fe486ff839663ee08dc50caba40972067e1e0e90bc23806',
        'traces/debate_stubborn-open_t1_con.jsonl': 'd450b5218880962d941bdc79009d13e2e905702b6fa3f46d1ca1dbeda457116a',
        'traces/debate_stubborn-open_t1_pro.jsonl': '0d71d127d3e3ae9deb63043d51314ec25920f054b398d97b5eec85667304d8b7',
        'traces/debate_stubborn-open_t2_con.jsonl': '4843aa82b356d1e5cebedf68d228a3b62c54c09e8b6e3cad6cd248ac7df26986',
        'traces/debate_stubborn-open_t2_pro.jsonl': 'a94aed0a3f29cc49728d8e4a78d4e063663eed0ba145105e22b00bc305e19227',
        'traces/debate_stubborn-stubborn_t0_con.jsonl': '7c8df4512f5535040fc183c33851dae987e2fba0e7bfeb9f0f903cff624940e1',
        'traces/debate_stubborn-stubborn_t0_pro.jsonl': '682053775dd55a6e67e4f38a8c43aac7f5a077b9167143bda0a6d70cc1799d26',
        'traces/debate_stubborn-stubborn_t1_con.jsonl': '151816c4f344035d101a4d6020f28c17e4a0c7ebafeb478aa23c3888ee20ca81',
        'traces/debate_stubborn-stubborn_t1_pro.jsonl': 'e17cfdea8a5c349baccf6ccf5179af172f431d009f23fdec18ef8c08b498dc05',
        'traces/debate_stubborn-stubborn_t2_con.jsonl': 'a97afcbbd1ed63c43c2a02ab62a667231c3eb5ce0fe725463f2f109ad3cb1b1a',
        'traces/debate_stubborn-stubborn_t2_pro.jsonl': '4c04e1e4d7e76c308de2bf0303b0715a4925651a1eef7480f6de2f954f01625e',
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
