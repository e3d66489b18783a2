"""sqdiv: diversity-scored selection of classifier ensemble teams.

Workflow: load (or simulate) a pool of per-model class-probability dumps,
derive the correctness matrix, score candidate teams with classical
diversity metrics or the synergy metric, rank with deterministic
tie-breaking, fuse the top teams by voting, and report diversity-accuracy
correlations.

The package exports the names the README "Library" section documents;
everything else is imported from its module (sqdiv.pool, sqdiv.scoring, ...).
"""

from .analytics import correlation_report
from .pool import correctness, load_pool
from .qmetrics import classical_scores
from .scoring import ScoreConfig, score_team, score_teams
from .selection import rank_teams, select_and_evaluate
from .teams import enumerate_teams

__all__ = [
    "load_pool",
    "correctness",
    "enumerate_teams",
    "ScoreConfig",
    "score_teams",
    "score_team",
    "classical_scores",
    "rank_teams",
    "select_and_evaluate",
    "correlation_report",
]

__version__ = "0.1.0"
