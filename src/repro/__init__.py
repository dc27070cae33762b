"""repro — a reproduction of "Embedding Emotional Context in Recommender
Systems" (González, de la Rosa, Montaner, Delfin; ICDE 2007 Workshops).

The package rebuilds the paper's Smart Prediction Assistant (SPA) platform
end to end on a calibrated synthetic stand-in for its proprietary
emagister.com deployment:

* :mod:`repro.core` — Smart User Models, the Four-Branch Model of
  Emotional Intelligence (Table 1), the Gradual EIT, the three-stage
  Initialization/Advice/Update methodology and the emotion-aware
  recommendation/selection functions;
* :mod:`repro.agents` — the five-agent SPA architecture of Fig. 3;
* :mod:`repro.lifelog` / :mod:`repro.db` — the LifeLog substrate and the
  embedded columnar database under it;
* :mod:`repro.ml` — from-scratch SVMs, calibration, SVD and baselines;
* :mod:`repro.campaigns` / :mod:`repro.messaging` — the Section 5
  campaign engine and the Fig. 5 messaging cases;
* :mod:`repro.datagen` — the synthetic population/catalog/behaviour
  generators (the documented substitution for the proprietary data);
* :mod:`repro.cf` — classical and emotion-context-aware collaborative
  filtering baselines;
* :mod:`repro.serving` — the batch-first serving layer: the
  :class:`~repro.serving.scorer.Scorer` protocol, adapters for every
  scorer family, typed request/response envelopes and the
  :class:`~repro.serving.service.RecommendationService` facade serving
  the paper's recommendation and selection functions as matrix ops;
* :mod:`repro.streaming` — the live Fig. 4 loop: an in-process
  partitioned event bus, hash-sharded consumer workers applying
  incremental SUM updates, a versioned
  :class:`~repro.streaming.cache.SumCache` the serving path reads from,
  write-behind persistence and a replay/load-generator driver;
* :mod:`repro.physio` — the wearIT@work future-work extension
  (physiological signals → emotional context).

Quickstart::

    from repro import SimulatedWorld, SmartPredictionAssistant

    world = SimulatedWorld.generate(n_users=2000, seed=7)
    spa = SmartPredictionAssistant(world)
    spa.bootstrap()
    results = spa.run_default_plan()
    print(spa.summary(results).average_performance)   # ≈ 0.21 (Fig. 6b)
    print(spa.redemption_chart(results))              # Fig. 6a

Serving (the two paper functions, batch-first)::

    response = spa.recommend_courses(user_id=42, k=3)
    for entry in response.ranked:   # base score, emotional multiplier, total
        print(entry.item, entry.base_score, entry.multiplier)
    selected = spa.select_users_for(course_id=7, k=100)
"""

from repro.campaigns.delivery import EngineConfig
from repro.core import (
    ColumnarSumStore,
    EmotionalState,
    FourBranchProfile,
    GradualEIT,
    QuestionBank,
    SmartUserModel,
    SumRepository,
    UnknownUserError,
)
from repro.serving import (
    RecommendationRequest,
    RecommendationResponse,
    RecommendationService,
    Scorer,
    ScorerBase,
    SelectionRequest,
    SelectionResponse,
)
from repro.spa import SimulatedWorld, SmartPredictionAssistant
from repro.streaming import ReplayDriver, StreamingUpdater, SumCache

__version__ = "1.2.0"

__all__ = [
    "ColumnarSumStore",
    "EmotionalState",
    "EngineConfig",
    "FourBranchProfile",
    "GradualEIT",
    "QuestionBank",
    "RecommendationRequest",
    "RecommendationResponse",
    "RecommendationService",
    "ReplayDriver",
    "Scorer",
    "ScorerBase",
    "SelectionRequest",
    "SelectionResponse",
    "SimulatedWorld",
    "SmartPredictionAssistant",
    "SmartUserModel",
    "StreamingUpdater",
    "SumCache",
    "SumRepository",
    "UnknownUserError",
    "__version__",
]
