"""Campaign delivery: the Fig. 4 loop run at population scale.

:class:`CampaignEngine` owns the SPA-side state (SUMs, Gradual EIT,
reinforcement, messaging, propensity model) and runs campaigns against a
"world" — the :class:`~repro.datagen.behavior.BehaviorModel` that stands
in for emagister.com's real users.  The engine only ever sees outcomes,
never latent traits.

Campaign sequence semantics (matching Section 5.2's narrative):

1. an optional *warm-up* campaign bootstraps SUMs and training data with
   standard messages and no model scores;
2. before each reported campaign, the propensity model retrains on all
   previously observed touches (incremental learning across campaigns);
3. every touch delivers one message (Messaging Agent), at most one EIT
   question (Gradual EIT), collects the outcome, writes LifeLog events
   and records reward/punish updates.

Each touch decides on a private copy of the user's committed SUM and
records its writes as ops (:mod:`repro.core.updates`), applying one to
the copy too where a later read of the same touch depends on it; each
pass — registration, browsing, revealed preferences, a campaign —
commits its ops as one batch through the store's ``batch_apply_ops``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from repro.campaigns.campaign import CampaignResult, TouchRecord
from repro.campaigns.propensity import (
    EstimatorName,
    FeatureBuilder,
    PropensityModel,
    estimated_appeal,
)
from repro.campaigns.targeting import select_random_targets
from repro.core.advice import DomainProfile
from repro.core.gradual_eit import AnswerRecord, GradualEIT, QuestionBank
from repro.core.reward import ReinforcementPolicy
from repro.core.sensibility import SensibilityAnalyzer
from repro.core.sharded_store import ShardedSumStore
from repro.core.sum_model import SmartUserModel, SumRepository
from repro.core.updates import (
    AnalyzeOp,
    DecayOp,
    EitAnswerOp,
    ProfileOp,
    PunishOp,
    RewardOp,
    SumUpdateOp,
)
from repro.datagen.behavior import BehaviorModel
from repro.datagen.campaigns_plan import CampaignSpec
from repro.datagen.catalog import AFFINITY_LINKS, emotions_linked_to
from repro.lifelog.events import ActionCategory, Event
from repro.lifelog.preprocess import LifeLogPreprocessor, UserFeatures
from repro.lifelog.store import EventLog
from repro.ml.svd import TruncatedSVD
from repro.messaging.assigner import MessageAssigner
from repro.messaging.templates import default_template_bank
from repro.serving.adapters import PropensityScorer
from repro.serving.service import RecommendationService


@dataclass
class EngineConfig:
    """Tunable knobs of the campaign engine."""

    estimator: EstimatorName = "svm"
    include_demographics: bool = True
    include_behavior: bool = True
    include_emotional: bool = True
    include_subjective: bool = True
    svd_rank: int = 8  # Section 5.2: SVD over the sparse answer matrix
    eit_questions_per_user: int | None = None  # None = unlimited (bank size)
    reward_transaction: float = 1.0
    reward_click: float = 0.6
    reward_open: float = 0.3
    punish_ignore: float = 0.3
    seed: int = 7
    #: SUM storage backend: "object" (dict of SmartUserModels),
    #: "sharded" (``n_shards`` struct-of-arrays partitions behind a hash
    #: router; same semantics, batch reads and updates become array
    #: slices — per-shard write locks, per-shard vocabularies,
    #: generation-stamped checkpoints for the replica refresh protocol;
    #: ``n_shards=1`` is the single columnar store) or "multiproc"
    #: (sharded, with every column page on shared memory so per-shard
    #: writer *processes* can own mutation — see repro.streaming.procplane)
    sum_backend: str = "object"
    #: partition count of the columnar backends (ignored by "object");
    #: match the streaming updater's ``n_shards`` so each shard worker
    #: is pinned to exactly one store partition
    n_shards: int = 4
    #: a :class:`~repro.obs.metrics.MetricsRegistry` to instrument every
    #: subsystem this engine builds (serving facade, streaming updater,
    #: checkpointer); ``None`` (default) runs on null instruments with
    #: zero hot-path cost
    telemetry: object | None = None
    #: a :class:`~repro.streaming.control.ControlPlaneConfig` enabling
    #: the tail-latency control plane (adaptive commit batching,
    #: two-class shedding, droppable decay ticks) on every streaming
    #: updater this engine builds; ``None`` (default) keeps the legacy
    #: never-shed behavior
    control_plane: object | None = None


class CampaignEngine:
    """SPA-side campaign execution against a simulated world."""

    def __init__(
        self,
        world: BehaviorModel,
        config: EngineConfig | None = None,
        question_bank: QuestionBank | None = None,
    ) -> None:
        self.world = world
        self.config = config or EngineConfig()
        if self.config.sum_backend == "object":
            self.sums = SumRepository()
        elif self.config.sum_backend == "sharded":
            self.sums = ShardedSumStore(n_shards=self.config.n_shards)
        elif self.config.sum_backend == "multiproc":
            # sharded semantics on shared-memory column pages; worker
            # processes attach via repro.streaming.procplane
            from repro.core.shm_store import MultiProcSumStore

            self.sums = MultiProcSumStore(n_shards=self.config.n_shards)
        else:
            raise ValueError(
                f"unknown sum_backend {self.config.sum_backend!r}; "
                "expected 'object', 'sharded' or 'multiproc'"
            )
        self.eit = GradualEIT(question_bank or QuestionBank.default_bank(per_task=5))
        self.policy = ReinforcementPolicy()
        self.analyzer = SensibilityAnalyzer()
        self.assigner = MessageAssigner(default_template_bank())
        self.event_log = EventLog()
        self.preprocessor = LifeLogPreprocessor()
        self.builder = FeatureBuilder(
            include_demographics=self.config.include_demographics,
            include_behavior=self.config.include_behavior,
            include_emotional=self.config.include_emotional,
            svd_rank=self.config.svd_rank,
            include_subjective=self.config.include_subjective,
        )
        self._embeddings: dict[int, np.ndarray] = {}
        #: the revealed preferences last committed, per user
        self._revealed: dict[int, tuple[tuple[str, float], ...]] = {}
        #: retargeting evidence from organic browsing (user → course/area → weight)
        self._course_engagement: dict[int, dict[int, float]] = {}
        self._area_engagement: dict[int, dict[str, float]] = {}
        self.model: PropensityModel | None = None
        self._serving: RecommendationService | None = None
        #: versioned SUM caches spawned by streaming_updater(); the
        #: offline loop invalidates them after committing its passes
        self._live_caches: "weakref.WeakSet" = weakref.WeakSet()
        self.history: list[CampaignResult] = []
        #: (user_id, course_id, transacted) per delivered touch
        self._training_rows: list[tuple[int, int, bool]] = []
        self._behavior_features: dict[int, UserFeatures] = {}
        self._clock = 1_143_000_000.0  # advances per campaign

    # -- bootstrap ---------------------------------------------------------

    def _private_copy(self, user_id: int) -> SmartUserModel:
        """A mutable copy of ``user_id``'s committed SUM."""
        if user_id not in self.sums:
            return SmartUserModel(user_id)
        return SmartUserModel.from_dict(self.sums.freeze_view(user_id).to_dict())

    def register_population(self) -> None:
        """Create SUMs with objective attributes for the whole population."""
        self.sums.batch_apply_ops([
            (user.user_id, (ProfileOp(objective=tuple(user.demographics().items())),))
            for user in self.world.population
        ], self.policy)
        self.builder.fit(self.sums)

    def ingest_browsing(self, horizon_days: float = 30.0) -> int:
        """Simulate and ingest organic browsing for everyone (LifeLog).

        Active visitors also meet the portal's question-of-the-day: users
        with heavier browsing answer up to three Gradual EIT questions —
        the "common day to day situations" collection channel of Section
        5.2 that runs alongside push/newsletter delivery.
        """
        count = 0
        answers: list[tuple[int, list[SumUpdateOp]]] = []
        for user in self.world.population:
            events = self.world.generate_browsing_events(
                user, start_ts=self._clock - 30 * 86_400.0,
                horizon_days=horizon_days,
            )
            count += self.event_log.extend(events)
            model = self._private_copy(user.user_id)
            ops: list[SumUpdateOp] = []
            n_portal_questions = min(20, (len(events) + 1) // 2)
            rng = self.world._touch_rng("portal-eit", user.user_id)
            for __ in range(n_portal_questions):
                question = self.eit.ask(model)
                if question is None:
                    break
                option = self.world.choose_eit_option(user, question, rng)
                # on the copy too: the next question reads the answers so far
                self.eit.record_answer(model, question, option)
                ops.append(EitAnswerOp(question, option))
            answers.append((user.user_id, ops))
        self.sums.batch_apply_ops(answers, self.policy)
        self._refresh_behavior_features()
        for cache in self._live_caches:
            cache.invalidate()
        return count

    def _refresh_behavior_features(self) -> None:
        events = list(self.event_log.events())
        self._behavior_features = self.preprocessor.extract_all(events)
        self._update_revealed_preferences(events)

    #: weight of each action kind as revealed-preference evidence
    _REVEALED_WEIGHTS = {"course_view": 1.0, "course_info": 3.0,
                         "course_enroll": 5.0, "course_rate": 2.0}

    def _update_revealed_preferences(self, events: list[Event]) -> None:
        """Distil implicit navigation habits into SUM subjective attributes.

        Section 5.1: subjective attributes are "discovered from WebLogs of
        user's implicit navigation habits".  A user's revealed preference
        for each product attribute is the engagement-weighted mean of the
        attribute presences of the courses they viewed, requested info on,
        rated or enrolled in.  Stored on the SUM as ``pref[attribute]``.
        """
        from repro.datagen.catalog import PRODUCT_ATTRIBUTES

        sums_weighted: dict[int, np.ndarray] = {}
        totals: dict[int, float] = {}
        course_engagement: dict[int, dict[int, float]] = {}
        area_engagement: dict[int, dict[str, float]] = {}
        for event in events:
            weight = self._REVEALED_WEIGHTS.get(event.action)
            if weight is None:
                continue
            if "via" in event.payload:
                continue  # campaign-caused: would leak labels into features
            target = event.payload.get("target")
            if target is None or not str(target).isdigit():
                continue
            course_id = int(target)
            try:
                course = self.world.catalog.get(course_id)
            except KeyError:
                continue
            presence = np.asarray(
                [course.attributes.get(a, 0.0) for a in PRODUCT_ATTRIBUTES]
            )
            uid = event.user_id
            if uid not in sums_weighted:
                sums_weighted[uid] = np.zeros(len(PRODUCT_ATTRIBUTES))
                totals[uid] = 0.0
                course_engagement[uid] = {}
                area_engagement[uid] = {}
            sums_weighted[uid] += weight * presence
            totals[uid] += weight
            course_engagement[uid][course_id] = (
                course_engagement[uid].get(course_id, 0.0) + weight
            )
            area_engagement[uid][course.area] = (
                area_engagement[uid].get(course.area, 0.0) + weight
            )
        revealed = {
            uid: tuple(
                (f"pref[{attribute}]", float(share))
                for attribute, share in zip(PRODUCT_ATTRIBUTES, weighted / totals[uid])
            )
            for uid, weighted in sums_weighted.items()
        }
        # only what moved since the previous pass: campaign-caused events
        # are excluded above, so a campaign's pass commits nothing
        self.sums.batch_apply_ops([
            (uid, (ProfileOp(subjective=prefs),))
            for uid, prefs in revealed.items() if self._revealed.get(uid) != prefs
        ], self.policy)
        self._revealed = revealed
        self._course_engagement = course_engagement
        self._area_engagement = area_engagement

    # -- training ----------------------------------------------------------

    def train_propensity(self) -> PropensityModel | None:
        """Retrain on all recorded touches; None with insufficient data.

        Each touch's features include the course it promoted, so the model
        learns both user-level propensity and user × course interactions.
        """
        if not self._training_rows:
            return None
        labels = np.asarray([int(t[2]) for t in self._training_rows])
        if len(set(labels.tolist())) < 2:
            return None
        self._refresh_embeddings()
        # Build features per course block (rows regrouped, then restored).
        by_course: dict[int, list[int]] = {}
        for position, (__, course_id, __label) in enumerate(self._training_rows):
            by_course.setdefault(course_id, []).append(position)
        width = len(self.builder.feature_names(with_course=True))
        x = np.zeros((len(self._training_rows), width))
        for course_id, positions in by_course.items():
            course = self.world.catalog.get(course_id)
            user_ids = [self._training_rows[p][0] for p in positions]
            x[positions] = self.builder.build(
                self.sums, self._behavior_features, user_ids,
                course=course, embeddings=self._embeddings,
                course_engagement=self._course_engagement,
                area_engagement=self._area_engagement,
            )
        model = PropensityModel(self.config.estimator, seed=self.config.seed)
        model.fit(x, labels)
        self.model = model
        return model

    def _refresh_embeddings(self) -> None:
        """Recompute SVD projections of the sparse EIT answer matrix.

        This is Section 5.2's dimensionality-reduction step: "To reduce
        the dimensionality of the matrix generated we use ..." — a
        truncated SVD over the user × question matrix, re-fit whenever the
        propensity model retrains.
        """
        if not self.config.svd_rank:
            return
        user_ids = self.sums.user_ids()
        matrix, __ = self.eit.answer_matrix(user_ids)
        if matrix.nnz == 0:
            self._embeddings = {}
            return
        rank = min(self.config.svd_rank, min(matrix.shape) - 1)
        if rank < 1:
            self._embeddings = {}
            return
        svd = TruncatedSVD(rank=rank)
        projected = svd.fit_transform(matrix)
        if projected.shape[1] < self.config.svd_rank:
            padded = np.zeros((projected.shape[0], self.config.svd_rank))
            padded[:, : projected.shape[1]] = projected
            projected = padded
        self._embeddings = {
            uid: projected[i] for i, uid in enumerate(user_ids)
        }

    def score_users(self, user_ids: list[int], course) -> np.ndarray:
        """Calibrated propensities for a user list on one course."""
        if self.model is None:
            raise RuntimeError("no propensity model trained yet")
        x = self.builder.build(
            self.sums, self._behavior_features, user_ids,
            course=course, embeddings=self._embeddings,
            course_engagement=self._course_engagement,
            area_engagement=self._area_engagement,
        )
        return self.model.predict_proba(x)

    # -- serving -----------------------------------------------------------

    def recommendation_service(
        self, sums=None, retriever=None
    ) -> RecommendationService:
        """The batch-first serving facade over this engine's scorers.

        Items are course ids.  Three scorer families are registered:

        * ``"propensity"`` (default) — the calibrated propensity stack
          (requires a trained model; :meth:`train_propensity` runs one);
        * ``"appeal"`` — SPA's estimated emotional appeal of the course,
          usable before any campaign history exists;
        * ``"engagement"`` — retargeting evidence from organic browsing.

        The adapters read live engine state, so the service stays current
        across retrains; the default facade (over the engine's own SUM
        repository) is built once and cached.  Pass ``sums`` — typically
        a :class:`~repro.streaming.cache.SumCache` from
        :meth:`streaming_updater` — to build a fresh, uncached service
        whose Advice stage reads from that resolver instead.  Pass a
        :class:`~repro.retrieval.retriever.CandidateRetriever` to arm
        the O(k) candidate-retrieval stage (a ``retriever`` implies a
        fresh, uncached service too).
        """
        if sums is None and retriever is None and self._serving is not None:
            return self._serving
        catalog = self.world.catalog
        service = RecommendationService(
            sums=sums if sums is not None else self.sums,
            domain_profile=DomainProfile("courses", AFFINITY_LINKS),
            item_attributes={
                course_id: dict(catalog.get(course_id).attributes)
                for course_id in catalog.course_ids()
            },
            telemetry=self.config.telemetry,
            retriever=retriever,
        )
        service.register("propensity", PropensityScorer(self))
        service.register(
            "appeal",
            lambda model, course_id: estimated_appeal(
                None, catalog.get(int(course_id)), model
            ),
        )
        service.register(
            "engagement",
            lambda model, course_id: float(np.log1p(
                self._course_engagement
                .get(model.user_id, {})
                .get(int(course_id), 0.0)
            )),
        )
        if sums is None and retriever is None:
            self._serving = service
        return service

    def streaming_updater(self, n_shards: int = 4, **kwargs) -> "StreamingUpdater":
        """A live update subsystem over this engine's SUMs and event log.

        Events stream into the engine's own
        :class:`~repro.core.sum_model.SumRepository` (through the same
        :class:`~repro.core.reward.ReinforcementPolicy` the campaign loop
        uses) with write-behind into its :class:`EventLog`; serve fresh
        state with ``engine.recommendation_service(sums=updater.cache)``.
        When *replaying the engine's own log* (rebuilding state rather
        than ingesting new traffic), pass ``event_log=None`` so the
        write-behind doesn't append the replayed events a second time.
        """
        from repro.streaming.updater import StreamingUpdater

        kwargs.setdefault("event_log", self.event_log)
        kwargs.setdefault("telemetry", self.config.telemetry)
        kwargs.setdefault("control_plane", self.config.control_plane)
        updater = StreamingUpdater(
            sums=self.sums,
            item_emotions=self.world.catalog.emotion_links(),
            policy=self.policy,
            n_shards=n_shards,
            **kwargs,
        )
        # The offline loop also commits to these SUMs; track the cache so
        # campaign runs invalidate it for the touched users.
        self._live_caches.add(updater.cache)
        return updater

    def sum_checkpointer(self, directory, cache=None, **kwargs) -> "Checkpointer":
        """A generation-stamped checkpoint cadence over this engine's SUMs.

        Requires the ``"sharded"`` backend (the generation-stamped save
        layout lives there).  Pass a live updater's ``cache`` so each
        checkpoint carries the streaming version counters and replicas
        report real version floors.
        """
        from repro.serving.replica import Checkpointer

        if not isinstance(self.sums, ShardedSumStore):
            raise TypeError(
                "checkpointing needs the sharded SUM backend; build the "
                "engine with EngineConfig(sum_backend='sharded')"
            )
        kwargs.setdefault("telemetry", self.config.telemetry)
        return Checkpointer(self.sums, directory, cache=cache, **kwargs)

    def replica_service(
        self, directory, mmap: bool = True, **kwargs
    ) -> "tuple[RecommendationService, ReplicaRefresher]":
        """A serving facade over a checkpointed replica, plus its refresher.

        Loads the manifest's current generation read-only, builds the
        same scorer registry as :meth:`recommendation_service` over it,
        and returns the service together with a
        :class:`~repro.serving.replica.ReplicaRefresher` that swaps new
        generations under it (``poll()`` on your cadence, or ``start()``
        with an interval).  Note the propensity/appeal/engagement
        adapters read live engine state for their *base scores*; the
        emotional Advice stage is what serves from the replica.
        """
        from repro.serving.replica import ReplicaRefresher

        replica = ShardedSumStore.load(directory, mmap=mmap)
        service = self.recommendation_service(sums=replica)
        kwargs.setdefault("telemetry", self.config.telemetry)
        return service, ReplicaRefresher(directory, service, mmap=mmap, **kwargs)

    # -- delivery ----------------------------------------------------------

    def run_campaign(
        self,
        spec: CampaignSpec,
        scored: bool = True,
        personalize: bool = True,
        retrain: bool = True,
    ) -> CampaignResult:
        """Deliver one campaign end to end.

        Parameters
        ----------
        spec:
            The campaign to run.
        scored:
            Attach propensity scores (requires trained model or ``retrain``).
        personalize:
            Use the Messaging Agent (False ⇒ standard message for everyone,
            the paper's implicit baseline).
        retrain:
            Retrain the propensity model on history before delivering.
        """
        if retrain:
            self.train_propensity()
        course = self.world.catalog.get(spec.course_id)
        targets = select_random_targets(
            self.world.population.user_ids(),
            spec.target_fraction,
            spec.campaign_id,
            seed=self.config.seed,
        )
        scores: dict[int, float] = {}
        if scored and self.model is not None:
            # Raw calibrated propensities through the serving layer's batch
            # path (adjust=False: delivery ranks on the calibrated model;
            # the Advice stage already shaped the training signal).
            column = self.recommendation_service().score_matrix(
                targets, [course.course_id], scorer="propensity", adjust=False
            )[:, 0]
            for uid, p in zip(targets, column):
                scores[uid] = float(p)

        result = CampaignResult(spec=spec)
        open_action = (
            "push_open" if spec.channel == "push" else "newsletter_open"
        )
        click_action = (
            "push_click" if spec.channel == "push" else "newsletter_click"
        )
        touches: list[tuple[int, list[SumUpdateOp]]] = []
        for uid in targets:
            user = self.world.population.get(uid)
            model = self._private_copy(uid)
            self.policy.apply_decay(model)  # the assignment reads the decayed state
            ops: list[SumUpdateOp] = [DecayOp()]
            touches.append((uid, ops))

            if personalize:
                assignment = self.assigner.assign(model, course)
            else:
                self.assigner.assign(model, course)
                # Force the standard text regardless of sensibilities.
                from repro.messaging.assigner import (
                    AssignmentCase,
                    MessageAssignment,
                )
                from repro.messaging.templates import STANDARD_MESSAGE

                assignment = MessageAssignment(
                    user_id=uid,
                    course_id=course.course_id,
                    case=AssignmentCase.STANDARD,
                    attribute=None,
                    text=STANDARD_MESSAGE.render(course.title),
                )

            question = None
            budget = self.config.eit_questions_per_user
            if budget is None or len(model.asked_questions) < budget:
                question = self.eit.next_question(model)
                if question is not None:
                    ops.append(EitAnswerOp(question))  # asked, maybe unanswered

            outcome = self.world.simulate_touch(
                user, course, assignment.attribute, spec.campaign_id, question
            )

            # -- LifeLog events ------------------------------------------
            moment = self._clock
            # "course" carries the advertised item so streaming replay can
            # resolve the emotions behind a campaign interaction ("target"
            # stays the campaign id for attribution queries).
            if outcome.opened:
                self.event_log.append(Event(
                    moment, uid, open_action, ActionCategory.CAMPAIGN,
                    payload={"target": spec.campaign_id,
                             "course": str(course.course_id)},
                ))
            if outcome.clicked:
                self.event_log.append(Event(
                    moment + 30.0, uid, click_action, ActionCategory.CAMPAIGN,
                    payload={"target": spec.campaign_id,
                             "course": str(course.course_id)},
                ))
            if outcome.transacted:
                # "via" marks the event as campaign-caused so the revealed-
                # preference extractor can exclude it: the transaction IS
                # the label, and folding it back into features would leak
                # outcomes into the very model that predicts them.
                self.event_log.append(Event(
                    moment + 120.0, uid, "course_info",
                    ActionCategory.INFO_REQUEST,
                    payload={"target": str(course.course_id),
                             "via": spec.campaign_id},
                ))
            if question is not None and outcome.answered_option is not None:
                self.event_log.append(Event(
                    moment + 60.0, uid, "eit_answer",
                    ActionCategory.EIT_ANSWER,
                    payload={"target": question.qid,
                             "opt": str(outcome.answered_option)},
                ))

            # -- SUM updates (Fig. 4) --------------------------------------
            if question is not None and outcome.answered_option is not None:
                ops.append(EitAnswerOp(question, outcome.answered_option))
                self.eit.records.append(
                    AnswerRecord(uid, question.qid, outcome.answered_option)
                )
            backing = emotions_linked_to(assignment.attribute)
            if not backing and (outcome.transacted or outcome.clicked):
                # Standard message but the user still engaged: credit
                # the emotions behind the course's own salient
                # attributes (Fig. 4's "related attributes and values").
                backing = course.linked_emotions()
            if backing:
                if outcome.transacted:
                    ops.append(RewardOp(backing, self.config.reward_transaction))
                elif outcome.clicked:
                    ops.append(RewardOp(backing, self.config.reward_click))
                elif outcome.opened:
                    ops.append(RewardOp(backing, self.config.reward_open))
                elif assignment.attribute is not None:
                    ops.append(PunishOp(backing, self.config.punish_ignore))
            ops.append(AnalyzeOp(self.analyzer))

            result.touches.append(TouchRecord(
                user_id=uid,
                campaign_id=spec.campaign_id,
                assignment=assignment,
                opened=outcome.opened,
                clicked=outcome.clicked,
                transacted=outcome.transacted,
                answered_option=outcome.answered_option,
                propensity=scores.get(uid),
            ))
            self._training_rows.append((uid, course.course_id, outcome.transacted))

        self.sums.batch_apply_ops(touches, self.policy)
        self._clock += 7 * 86_400.0  # one campaign per week
        self._refresh_behavior_features()
        for cache in self._live_caches:
            cache.invalidate(targets)
        self.history.append(result)
        return result

    def run_plan(
        self,
        plan: list[CampaignSpec],
        warmup: list[CampaignSpec] | None = None,
        personalize: bool = True,
    ) -> list[CampaignResult]:
        """Run warm-up campaigns (unscored, standard messages) then the plan.

        Warm-ups bootstrap the Gradual EIT coverage and the first training
        set, mirroring the paper's "marketing strategy ... designed whereby
        emotional attributes and their values are collected" before the
        reported campaigns.
        """
        for spec in warmup or []:
            self.run_campaign(spec, scored=False, personalize=False, retrain=False)
        return [
            self.run_campaign(spec, scored=True, personalize=personalize)
            for spec in plan
        ]
