"""The paper's primary contribution: emotional context for recommenders.

This package implements Sections 2–3 of the paper:

* the emotion catalog and valence algebra (:mod:`repro.core.emotions`),
* the context taxonomy of Fig. 1 (:mod:`repro.core.context`),
* the Four-Branch Model of Emotional Intelligence, Table 1
  (:mod:`repro.core.four_branch`),
* the Gradual EIT (:mod:`repro.core.gradual_eit`),
* Smart User Models (:mod:`repro.core.sum_model`) and their columnar
  struct-of-arrays backend (:mod:`repro.core.sum_store`),
* the three-stage methodology — Initialization / Advice / Update — via
  :mod:`repro.core.gradual_eit`, :mod:`repro.core.advice` and
  :mod:`repro.core.reward`,
* sensibility weighting (:mod:`repro.core.sensibility`),
* the Fig. 4 iterative loop (:mod:`repro.core.pipeline`), and
* the Human Values Scale of SPA component 5 (:mod:`repro.core.human_values`).

The emotion-aware recommendation and selection functions (Section 5.4)
are served by :class:`repro.serving.RecommendationService`.
"""

from repro.core.advice import AdviceEngine, DomainProfile
from repro.core.emotions import (
    EMOTION_CATALOG,
    EMOTION_NAMES,
    EmotionalAttribute,
    EmotionalState,
    NEGATIVE_EMOTIONS,
    POSITIVE_EMOTIONS,
)
from repro.core.four_branch import Branch, FourBranchProfile, branch_table
from repro.core.gradual_eit import (
    AnswerOption,
    EITQuestion,
    GradualEIT,
    QuestionBank,
)
from repro.core.human_values import HumanValuesScale
from repro.core.pipeline import EmotionalContextPipeline, TouchResult
from repro.core.reward import ReinforcementPolicy
from repro.core.sensibility import SensibilityAnalyzer
from repro.core.sum_model import (
    AttributeKind,
    AttributeSpec,
    SmartUserModel,
    SumRepository,
    UnknownUserError,
)
from repro.core.sum_store import ColumnarSumStore, FrozenSumBatch, SumRowView
from repro.core.sharded_store import ShardedBatch, ShardedSumStore
from repro.core.updates import (
    AnalyzeOp,
    DecayOp,
    EitAnswerOp,
    ProfileOp,
    PunishOp,
    RewardOp,
    SumUpdateOp,
    apply_op,
    apply_ops,
)

__all__ = [
    "AdviceEngine",
    "AnalyzeOp",
    "AnswerOption",
    "AttributeKind",
    "AttributeSpec",
    "Branch",
    "ColumnarSumStore",
    "DecayOp",
    "DomainProfile",
    "EITQuestion",
    "EitAnswerOp",
    "EMOTION_CATALOG",
    "EMOTION_NAMES",
    "EmotionalAttribute",
    "EmotionalContextPipeline",
    "EmotionalState",
    "FourBranchProfile",
    "FrozenSumBatch",
    "GradualEIT",
    "HumanValuesScale",
    "NEGATIVE_EMOTIONS",
    "POSITIVE_EMOTIONS",
    "ProfileOp",
    "PunishOp",
    "QuestionBank",
    "ReinforcementPolicy",
    "RewardOp",
    "SensibilityAnalyzer",
    "ShardedBatch",
    "ShardedSumStore",
    "SmartUserModel",
    "SumRepository",
    "SumRowView",
    "SumUpdateOp",
    "TouchResult",
    "UnknownUserError",
    "apply_op",
    "apply_ops",
    "branch_table",
]
