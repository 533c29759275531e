"""Auditable belief dynamics: log-odds updating with uptake/anchoring
controls, argument memory with soft deduplication, two-agent debates,
and replay-based calibration against observed stance changes."""

from .core import (
    STANCE_CLIP,
    BeliefState,
    Role,
    UAProfile,
    clip_stance,
    compute_log_odds,
    left_sum,
    log_odds_from_stance,
    record_contribution,
    record_weight,
    stance_from_log_odds,
    update_incremental,
)
from .engine import (
    AgentState,
    TraceEvent,
    compose_response,
    ingest_candidates,
    process_message,
    read_trace,
    refresh_belief,
    stance_to_instruction,
    store_from_trace,
    take_turn,
    template_response,
    verify_trace,
    verify_trace_file,
    write_trace,
)
from .exceptions import (
    ConfigError,
    ContractError,
    CredenceError,
    ExtractionBackendError,
    ScoringBackendError,
    TraceVerificationError,
)
from .extraction import (
    ExtractorPort,
    Message,
    ScriptedExtractor,
    ServiceExtractor,
    parse_scripted_message,
)
from .judgement import (
    ArgumentRecord,
    BuiltinScorer,
    CandidateArgument,
    ScorerPort,
    ServiceScorer,
    cosine_similarity,
    embed_claim,
    ingest_record,
    judge,
    score_strength,
    trigram_counts,
)
from .memory import MemoryStore, RetrievalContext
from .replay import (
    CalibrationGrid,
    EvidenceItem,
    ReplayCase,
    ReplayReport,
    accepted_records,
    assign_folds,
    build_replay_report,
    calibrate,
    classify_subgroup,
    evaluate,
    fit_linear_baseline,
    likert_to_stance,
    linear_prediction,
    load_cases_jsonl,
    net_evidence,
    replay_case,
)
from .simulation import (
    OPEN_MINDED,
    PROFILE_PRESETS,
    STUBBORN,
    DebateConfig,
    DebateResult,
    MetricSummary,
    SweepConfig,
    SweepRun,
    compute_metrics,
    load_scripted_claims,
    make_agent,
    run_scripted_opponent_sweep,
    run_two_agent_debate,
    seed_agent,
)

__version__ = "0.1.0"
