import json
import logging
import math
import random

import numpy as np
import pytest

from credence import replay as replay_mod
from credence.core import Role, UAProfile
from credence.exceptions import ContractError, ScoringBackendError
from credence.extraction import ExtractorPort, ScriptedExtractor
from credence.judgement import BuiltinScorer, CandidateArgument, ScorerPort
from credence.replay import (
    CalibrationGrid,
    EvidenceItem,
    ReplayCase,
    accepted_records,
    assign_folds,
    build_replay_report,
    calibrate,
    case_from_dict,
    case_to_dict,
    classify_subgroup,
    evaluate,
    fit_linear_baseline,
    likert_to_stance,
    linear_prediction,
    load_cases_jsonl,
    net_evidence,
    replay_case,
)


def make_case(
    participant="p0",
    group="g0",
    evidence=(),
    initial=3,
    final=4,
    final_stance=None,
    topic="t",
):
    return ReplayCase(
        participant=participant,
        group=group,
        topic=topic,
        initial_likert=initial,
        final_likert=None if final_stance is not None else final,
        final_stance=final_stance,
        evidence=list(evidence),
    )


def random_case(rng, i, groups=10):
    evidence = [
        EvidenceItem(
            claim=f"case {i} item {j} token {rng.random()}",
            polarity=rng.choice([-1, 1]),
            strength=round(rng.uniform(0.05, 0.95), 3),
        )
        for j in range(rng.randint(2, 8))
    ]
    return make_case(
        participant=f"p{i}",
        group=f"g{i % groups}",
        evidence=evidence,
        initial=rng.randint(1, 6),
        final_stance=0.0,
    )


def test_likert_endpoints_and_errors():
    assert [likert_to_stance(v) for v in range(1, 7)] == [-1.0, -0.6, -0.2, 0.2, 0.6, 1.0]
    with pytest.raises(ContractError):
        likert_to_stance(0)
    with pytest.raises(ContractError):
        likert_to_stance(7)


def test_likert_to_stance_rejects_booleans():
    for value in (True, False):  # True in range(1, 7) holds
        with pytest.raises(ContractError, match="not an integer in 1..6"):
            likert_to_stance(value)


@pytest.mark.parametrize("field", ["initial_likert", "final_likert"])
def test_case_rejects_boolean_likert_values(field):
    values = {"initial_likert": 3, "final_likert": 4, field: True}
    with pytest.raises(ContractError, match=f"{field} True is not an integer"):
        ReplayCase("p", "g", "t", **values)


def test_case_rejects_boolean_final_stance():
    for value in (True, False):
        with pytest.raises(ContractError, match="final_stance"):
            ReplayCase("p", "g", "t", 3, final_stance=value)
    with pytest.raises(ContractError, match="final_stance"):
        ReplayCase("p", "g", "t", 3, final_stance="0.5")


def test_case_validation():
    with pytest.raises(ContractError):
        make_case(initial=9)
    with pytest.raises(ContractError):
        ReplayCase(participant="p", group="g", topic="t", initial_likert=3)
    with pytest.raises(ContractError):
        EvidenceItem(claim="x", polarity=0)
    with pytest.raises(ContractError):  # True == 1, but a boolean is no polarity
        EvidenceItem(claim="x", polarity=True, strength=0.5)


def test_grid_validation():
    with pytest.raises(ContractError):
        CalibrationGrid(u_values=(0.2, 0.1))
    with pytest.raises(ContractError):
        CalibrationGrid(u_values=())
    nan, inf = float("nan"), float("inf")
    bad_grids = ((-2.0, 0.1), (-0.5, 0.1), (nan, 0.1), (0.1, nan), (0.1, nan, 0.2), (0.1, inf), (-inf, 0.1), (False, True))
    for values in bad_grids:
        with pytest.raises(ContractError, match="finite and >= 0"):
            CalibrationGrid(u_values=values)
        with pytest.raises(ContractError, match=">= 0"):
            CalibrationGrid(a_values=values)


def test_accepted_records_dedups_same_polarity():
    case = make_case(
        evidence=[
            EvidenceItem(claim="rents rise near new transit stops", polarity=1, strength=0.4),
            EvidenceItem(claim="rents rise near new transit stops", polarity=1, strength=0.8),
            EvidenceItem(claim="an unrelated negative point", polarity=-1, strength=0.5),
        ]
    )
    records = accepted_records(case, theta=0.85)
    assert [(r.polarity, r.strength) for r in records] == [(1, 0.8), (-1, 0.5)]
    for theta in (True, 1.5, float("nan")):  # True == 1, but a boolean is no threshold
        with pytest.raises(ContractError, match="replay theta must be in \\[0, 1\\]"):
            accepted_records(case, theta=theta)


def test_prior_fidelity_identity_profile():
    # a=1, u=0 reproduces the clipped initial stance for every case.
    profile = UAProfile(uptake=0.0, anchoring=1.0)
    for initial in range(1, 7):
        case = make_case(initial=initial, evidence=[EvidenceItem(claim="x", polarity=1, strength=0.9)])
        expected = max(-0.995, min(0.995, case.initial_stance))
        assert replay_case(case, profile) == pytest.approx(expected, abs=1e-12)


def test_net_evidence_matches_accepted_filter():
    rng = random.Random(9)
    for i in range(20):
        case = random_case(rng, i)
        records = accepted_records(case, theta=0.85)
        assert net_evidence(case, theta=0.85) == pytest.approx(
            sum(r.polarity * r.strength for r in records)
        )


def test_raw_text_items_route_through_extractor():
    case = make_case(
        evidence=[EvidenceItem(text="CLAIM -0.7: the audit found overruns")]
    )
    records = accepted_records(case, theta=0.85, extractor=ScriptedExtractor())
    assert [(r.polarity, r.strength) for r in records] == [(-1, 0.7)]
    with pytest.raises(ContractError):
        accepted_records(case, theta=0.85)


def test_raw_text_item_warnings_reach_the_log(caplog):
    text = "CLAIM +0.x: a hint that is no number\nCLAIM +0.5:   \nCLAIM -0.7: the audit found overruns"
    case = make_case(
        participant="p7", evidence=[EvidenceItem(claim="x", polarity=1, strength=0.5), EvidenceItem(text=text)]
    )
    with caplog.at_level(logging.WARNING, logger="credence.replay"):
        records = accepted_records(case, theta=0.85, extractor=ScriptedExtractor())
    assert [(r.polarity, r.strength) for r in records] == [(1, 0.5), (-1, 0.7)]
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
        (
            "credence.replay",
            "WARNING",
            "participant p7, evidence item 1: malformed strength hint '0.x' in line 'CLAIM +0.x: a hint that is no number'",
        ),
        ("credence.replay", "WARNING", "participant p7, evidence item 1: blank claim text in line 'CLAIM +0.5:'"),
    ]


def test_unscored_items_need_scorer():
    case = make_case(evidence=[EvidenceItem(claim="x", polarity=1)])
    with pytest.raises(ContractError):
        accepted_records(case, theta=0.85)
    records = accepted_records(case, theta=0.85, scorer=BuiltinScorer())
    assert 0.0 <= records[0].strength <= 1.0


class NanScorer(ScorerPort):
    def score(self, topic, claim):
        return float("nan")


def test_non_finite_scorer_output_is_a_backend_error():
    # Replay scores unscored items through the same path as the engine.
    case = make_case(evidence=[EvidenceItem(claim="x", polarity=1)])
    with pytest.raises(ScoringBackendError):
        accepted_records(case, theta=0.85, scorer=NanScorer())


class CountingExtractor(ExtractorPort):
    """One unhinted candidate per raw-text item, its text; counts calls."""

    def __init__(self):
        self.calls = 0

    def extract(self, topic, message, on_warning=None):
        self.calls += 1
        return [CandidateArgument(message.text, 1, Role.OPPONENT)]


class FailingScorer(ScorerPort):
    def score(self, topic, claim):
        raise ScoringBackendError("scoring service down")


def test_a_failing_scorer_stops_the_case_before_the_next_extraction():
    """Each raw-text item is judged as soon as it is extracted, so a
    scorer that fails on the first claim stops the case before the
    extractor is asked about the second item."""
    case = make_case(evidence=[EvidenceItem(text=f"item {i} of the stream") for i in range(3)])
    extractor = CountingExtractor()
    with pytest.raises(ScoringBackendError, match="scoring service down"):
        accepted_records(case, theta=0.85, scorer=FailingScorer(), extractor=extractor)
    assert extractor.calls == 1


def test_linear_baseline_closed_form():
    samples = [(1.0, 0.5), (2.0, 0.9), (-1.0, -0.4)]
    beta = fit_linear_baseline(samples)
    assert beta == pytest.approx((0.5 + 1.8 + 0.4) / 6.0)
    assert fit_linear_baseline([(0.0, 0.3)]) == 0.0
    assert linear_prediction(0.9, 1.0, 5.0) == 1.0  # clamped
    assert linear_prediction(np.array([0.9, -0.9, 0.1]), 1.0, np.array([5.0, -5.0, 0.4])).tolist() == [1.0, -1.0, 0.5]


def test_fold_cohesion_and_reproducibility():
    rng = random.Random(4)
    cases = [random_case(rng, i, groups=13) for i in range(60)]
    folds = assign_folds(cases, key="group", folds=5, seed=42)
    assert folds == assign_folds(cases, key="group", folds=5, seed=42)
    by_group = {}
    for case, fold in zip(cases, folds):
        by_group.setdefault(case.group, set()).add(fold)
    assert all(len(v) == 1 for v in by_group.values())
    with pytest.raises(ContractError):
        assign_folds(cases, key="participant")


def test_fewer_keys_than_folds_shrinks():
    cases = [make_case(participant=f"p{i}", group=f"g{i % 2}") for i in range(6)]
    folds = assign_folds(cases, key="group", folds=5)
    assert set(folds) <= {0, 1}


def test_subgroup_classification():
    mover = make_case(initial=3, final=5)
    assert classify_subgroup(mover, evidence=2.0) == "aligned"
    assert classify_subgroup(mover, evidence=-2.0) == "opposed"
    assert classify_subgroup(mover, evidence=0.01) == "weak_signal"
    stayer = make_case(initial=3, final=3)
    assert classify_subgroup(stayer, evidence=2.0) == "stable"
    for eps_weak in (True, math.inf, -1.0, math.nan):  # True == 1, but a boolean is no width
        with pytest.raises(ContractError, match="eps_weak must be >= 0"):
            classify_subgroup(mover, evidence=2.0, eps_weak=eps_weak)


def test_report_checks_eps_weak_before_judging_any_case(monkeypatch):
    def not_judged(*args, **kwargs):
        raise AssertionError("a case was judged before eps_weak was checked")

    monkeypatch.setattr(replay_mod, "accepted_records", not_judged)
    cases = [random_case(random.Random(4), i) for i in range(6)]
    for eps_weak in (-1.0, math.inf, math.nan, True):
        with pytest.raises(ContractError, match=r"eps_weak must be >= 0 and finite, got "):
            build_replay_report(cases, CalibrationGrid(), folds=2, eps_weak=eps_weak)


def test_evaluate_rmse_arithmetic():
    cases = [make_case(initial=3, final_stance=0.0), make_case(initial=3, final_stance=0.0)]
    result = evaluate(cases, [0.3, 0.4])
    assert result.rmse == pytest.approx(math.sqrt((0.09 + 0.16) / 2))
    with pytest.raises(ContractError):
        evaluate(cases, [0.1])


def test_no_change_exact_on_stable_population():
    cases = [make_case(participant=f"p{i}", initial=4, final=4) for i in range(10)]
    result = evaluate(cases, [c.initial_stance for c in cases])
    assert result.rmse == 0.0 and result.mean_abs_movement == 0.0


def test_surface_monotone_in_u_on_stable_population():
    rng = random.Random(8)
    cases = []
    for i in range(30):
        case = random_case(rng, i)
        case.final_stance = case.initial_stance
        cases.append(case)
    grid = CalibrationGrid(u_values=(0.01, 0.05, 0.2, 0.6), a_values=(0.5, 1.0))
    folds = assign_folds(cases, key="group", folds=3)
    result = calibrate(cases, grid, folds)
    for a in grid.a_values:
        rmses = [result.surface[(u, a)] for u in grid.u_values]
        assert rmses == sorted(rmses)


def test_report_structure(tmp_path):
    rng = random.Random(12)
    truth = UAProfile(uptake=0.1, anchoring=0.4)
    cases = []
    for i in range(40):
        case = random_case(rng, i)
        case.final_stance = replay_case(case, truth)
        cases.append(case)
    grid = CalibrationGrid(u_values=(0.05, 0.1, 0.2), a_values=(0.2, 0.4, 0.8))
    report = build_replay_report(cases, grid, folds=4)
    assert report.group_summaries[0].group == "all"
    assert len(report.fold_ids) == 40
    assert set(report.surfaces) >= {"all"}
    assert not np.isnan(report.pooled.heldout_predictions).any()
    assert len(report.linear_betas) == 4


def test_report_evaluates_each_grid_cell_once_per_case(monkeypatch):
    """One grid pass: each (u, a) cell once per case, plus one held-out
    prediction per case for the pooled fit and one for its subgroup's.
    The kernel takes arrays, so the predicted elements are counted."""
    rng = random.Random(12)
    cases = []
    for i in range(40):
        case = random_case(rng, i)
        case.final_stance = case.initial_stance if i % 4 == 0 else 0.0  # some stable cases
        cases.append(case)
    grid = CalibrationGrid(u_values=(0.05, 0.1, 0.2), a_values=(0.2, 0.4, 0.8, 1.0))
    sizes = []
    kernel = replay_mod._predict

    def counting(*args):
        predictions = kernel(*args)
        sizes.append(predictions.size)
        return predictions

    monkeypatch.setattr(replay_mod, "_predict", counting)
    report = build_replay_report(cases, grid, folds=4)
    assert len(report.group_calibrations) >= 2
    assert sum(sizes) == len(grid.u_values) * len(grid.a_values) * len(cases) + 2 * len(cases)


def test_jsonl_roundtrip_and_error_reporting(tmp_path):
    good = case_to_dict(
        make_case(evidence=[EvidenceItem(claim="x", polarity=1, strength=0.5)])
    )
    path = tmp_path / "cases.jsonl"
    with open(path, "w") as handle:
        handle.write(json.dumps(good) + "\n")
        handle.write("not json\n")
        handle.write(json.dumps({"participant": "p", "group": "g"}) + "\n")
    cases, errors = load_cases_jsonl(path)
    assert len(cases) == 1 and [line for line, _ in errors] == [2, 3]
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())  # a byte-order mark at the start only
    assert load_cases_jsonl(path) == (cases, errors)
    path.write_bytes(path.read_bytes() + b"\xef\xbb\xbf" + json.dumps(good).encode() + b"\n")
    cases, errors = load_cases_jsonl(path)
    assert len(cases) == 1 and [line for line, _ in errors] == [2, 3, 4]
    assert "Unexpected UTF-8 BOM" in errors[-1][1]
    rebuilt = case_from_dict(case_to_dict(cases[0]))
    assert rebuilt.participant == cases[0].participant
    assert rebuilt.evidence[0].strength == 0.5


def _good_row():
    return {
        "participant": "p",
        "group": "g",
        "topic": "t",
        "initial_likert": 3,
        "final_likert": 4,
        "evidence": [{"claim": "x", "polarity": 1, "strength": 0.5}],
    }


def _with(path, value):
    row = _good_row()
    target = row
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(row)


BAD_CASE_LINES = {
    "strength-nan": _with(("evidence", 0, "strength"), float("nan")),
    "strength-above-one": _with(("evidence", 0, "strength"), 1.7),
    "strength-negative": _with(("evidence", 0, "strength"), -0.2),
    "strength-string": _with(("evidence", 0, "strength"), "0.5"),
    "polarity-fractional": _with(("evidence", 0, "polarity"), 1.5),
    "polarity-null": _with(("evidence", 0, "polarity"), None),
    "polarity-infinite": _with(("evidence", 0, "polarity"), float("inf")),
    "claim-number": _with(("evidence", 0, "claim"), 5),
    "claim-blank": _with(("evidence", 0, "claim"), "  "),
    "text-number": _with(("evidence", 0), {"text": 7}),
    "initial-likert-fractional": _with(("initial_likert",), 4.7),
    "initial-likert-null": _with(("initial_likert",), None),
    "final-likert-fractional": _with(("final_likert",), 4.5),
    "final-stance-out-of-range": _with(("final_stance",), 7.0),
    "final-stance-nan": _with(("final_stance",), float("nan")),
    "final-stance-string": _with(("final_stance",), "0.5"),
    "final-stance-bool": _with(("final_stance",), True),
    "final-stance-beyond-float-range": _with(("final_stance",), 10**400),
    "evidence-null": _with(("evidence",), None),
    "claim-and-text": _with(("evidence", 0, "text"), "CLAIM +0.5: y"),
    "participant-null": _with(("participant",), None),
    "group-list": _with(("group",), [1, 2]),
    "topic-number": _with(("topic",), 7),
    "row-not-an-object": "[1, 2]",
}


@pytest.mark.parametrize("line", list(BAD_CASE_LINES.values()), ids=list(BAD_CASE_LINES))
def test_malformed_case_values_are_line_errors(tmp_path, line):
    # None of these may be coerced (NaN strength to 0.0, 1.5 to 1, 4.7 to
    # 4), accepted as is, or raised past the loader.
    path = tmp_path / "cases.jsonl"
    path.write_text(json.dumps(_good_row()) + "\n" + line + "\n")
    cases, errors = load_cases_jsonl(path)
    assert len(cases) == 1
    assert [number for number, _ in errors] == [2]


def _without(key):
    row = _good_row()
    del row[key]
    return json.dumps(row)


# A malformed case line -> the message load_cases_jsonl reports for it.
CASE_LINE_MESSAGES = {
    "participant-missing": (_without("participant"), "case has no 'participant' field"),
    "evidence-null": (_with(("evidence",), None), "case field 'evidence' must be a list, got None"),
    "evidence-item-string": (_with(("evidence", 0), "x"), "evidence[0] must be an object, got 'x'"),
    "evidence-item-empty": (
        _with(("evidence",), [{"claim": "x", "polarity": 1}, {"strength": 0.5}]),
        "evidence[1]: item has neither 'claim' nor 'text'",
    ),
}


@pytest.mark.parametrize("line, message", list(CASE_LINE_MESSAGES.values()), ids=list(CASE_LINE_MESSAGES))
def test_a_malformed_case_line_names_its_field(tmp_path, line, message):
    # Not a bare KeyError or TypeError text such as 'participant'.
    path = tmp_path / "cases.jsonl"
    path.write_text(json.dumps(_good_row()) + "\n" + line + "\n")
    cases, errors = load_cases_jsonl(path)
    assert len(cases) == 1
    assert errors == [(2, message)]


def test_integral_floats_load_as_ints():
    row = _good_row()
    row["initial_likert"], row["evidence"][0]["polarity"] = 3.0, -1.0
    case = case_from_dict(row)
    assert (case.initial_likert, case.evidence[0].polarity) == (3, -1)
    assert type(case.initial_likert) is int
