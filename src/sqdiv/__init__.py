"""sqdiv: diversity-scored selection of classifier ensemble teams.

Workflow: load (or simulate) a pool of per-model class-probability dumps,
derive the correctness matrix, score candidate teams with classical
diversity metrics or the synergy metric, rank with deterministic
tie-breaking, fuse the top teams by voting, and report diversity-accuracy
correlations.
"""

from .analytics import (
    UndefinedCorrelationError,
    case_study,
    correlation_report,
    pearson,
    scatter_export,
    spearman,
)
from .pool import (
    CorrectnessMatrix,
    ModelRecord,
    PoolFormatError,
    PredictionPool,
    correctness,
    load_pool,
    model_accuracy,
    write_pool,
)
from .qmetrics import (
    ANY_MEMBER_ERRS,
    FOCAL_ERRS,
    DiversityScore,
    NegativeSampleSet,
    PairContingency,
    UndefinedDiversityError,
    binary_disagreement,
    cohen_kappa_diversity,
    generalized_diversity,
    kohavi_wolpert,
    negative_samples,
    pair_contingency,
    q_statistic,
)
from .scoring import METRICS, ScoreConfig, metric_direction, score_team, score_teams
from .selection import RankedEntry, SelectionReport, SelectionRow, rank_teams, select_and_evaluate
from .sq import (
    EmptyFocalNegativesError,
    FocalResult,
    SQBreakdown,
    multiclass_kappa,
    sq_alpha,
    sq_epsilon,
)
from .synth import SynthSpec, contiguous_groups, default_spec, generate, planted_best_team
from .teams import (
    ConsensusResult,
    EnsembleTeam,
    consensus,
    count_teams,
    enumerate_teams,
    majority_vote,
    make_team,
    parse_team_key,
    soft_vote,
    team_accuracy_table,
)

__version__ = "0.1.0"
