"""Graph-mining applications built on RWR scores.

The paper motivates RWR with four applications (Section 1); each gets a
module here, all solver-agnostic (anything implementing
:class:`~repro.core.base.RWRSolver` works):

- :mod:`repro.applications.ranking` — personalized ranking (Tong et al.),
- :mod:`repro.applications.link_prediction` — link recommendation with AUC
  evaluation (Backstrom & Leskovec),
- :mod:`repro.applications.community` — local community detection by
  conductance sweep over RWR scores (Andersen, Chung & Lang),
- :mod:`repro.applications.anomaly` — neighborhood-formation anomaly
  scores on bipartite graphs (Sun et al.).
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

_EXPORTS = {
    "repro.applications.anomaly": ("anomaly_scores", "neighborhood_relevance", "normality_scores"),
    "repro.applications.community": ("Community", "conductance", "local_community"),
    "repro.applications.evaluation": (
        "kendall_tau",
        "ndcg_at_k",
        "precision_at_k",
        "ranking_agreement",
        "spearman_rho",
    ),
    "repro.applications.link_prediction": (
        "LinkPredictionEvaluation",
        "auc_score",
        "evaluate_link_prediction",
        "recommend_links",
        "sample_negative_edges",
        "split_edges",
    ),
    "repro.applications.ranking": (
        "multi_seed_ranking",
        "personalized_ranking",
        "personalized_ranking_many",
        "top_k",
        "top_k_many",
    ),
}

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.applications.anomaly import (
        anomaly_scores as anomaly_scores,
        neighborhood_relevance as neighborhood_relevance,
        normality_scores as normality_scores,
    )
    from repro.applications.community import (
        Community as Community,
        conductance as conductance,
        local_community as local_community,
    )
    from repro.applications.evaluation import (
        kendall_tau as kendall_tau,
        ndcg_at_k as ndcg_at_k,
        precision_at_k as precision_at_k,
        ranking_agreement as ranking_agreement,
        spearman_rho as spearman_rho,
    )
    from repro.applications.link_prediction import (
        LinkPredictionEvaluation as LinkPredictionEvaluation,
        auc_score as auc_score,
        evaluate_link_prediction as evaluate_link_prediction,
        recommend_links as recommend_links,
        sample_negative_edges as sample_negative_edges,
        split_edges as split_edges,
    )
    from repro.applications.ranking import (
        multi_seed_ranking as multi_seed_ranking,
        personalized_ranking as personalized_ranking,
        personalized_ranking_many as personalized_ranking_many,
        top_k as top_k,
        top_k_many as top_k_many,
    )
