"""Feature builder, propensity model and the campaign engine (integration)."""

import numpy as np
import pytest

from repro.campaigns.delivery import CampaignEngine, EngineConfig
from repro.campaigns.propensity import (
    FeatureBuilder,
    PropensityModel,
    estimated_appeal,
)
from repro.core.sum_model import SmartUserModel, SumRepository
from repro.datagen.behavior import BehaviorModel
from repro.datagen.campaigns_plan import CampaignSpec
from repro.datagen.catalog import CourseCatalog
from repro.datagen.population import Population


@pytest.fixture(scope="module")
def small_world():
    population = Population.generate(300, seed=7)
    catalog = CourseCatalog.generate(30, seed=7)
    return BehaviorModel(population, catalog, seed=7)


@pytest.fixture(scope="module")
def run_engine(small_world):
    engine = CampaignEngine(small_world, EngineConfig(seed=7))
    engine.register_population()
    engine.ingest_browsing()
    warmup = CampaignSpec("warmup-00", "push", 0, 0.5)
    specs = [
        CampaignSpec("push-01", "push", 5, 0.5),
        CampaignSpec("push-02", "push", 9, 0.5),
        CampaignSpec("newsletter-03", "newsletter", 12, 0.5),
    ]
    results = engine.run_plan(specs, warmup=[warmup])
    return engine, results


class TestFeatureBuilder:
    def test_width_matches_names(self, run_engine):
        engine, __ = run_engine
        course = engine.world.catalog.get(5)
        ids = engine.sums.user_ids()[:20]
        x = engine.builder.build(
            engine.sums, engine._behavior_features, ids, course=course,
            embeddings=engine._embeddings,
            course_engagement=engine._course_engagement,
            area_engagement=engine._area_engagement,
        )
        assert x.shape == (20, len(engine.builder.feature_names(with_course=True)))

    def test_no_course_narrower(self, run_engine):
        engine, __ = run_engine
        ids = engine.sums.user_ids()[:5]
        x = engine.builder.build(
            engine.sums, engine._behavior_features, ids,
            embeddings=engine._embeddings,
        )
        assert x.shape == (5, len(engine.builder.feature_names(with_course=False)))

    def test_at_least_one_block_required(self):
        with pytest.raises(ValueError):
            FeatureBuilder(False, False, False)

    def test_estimated_appeal_matches_formula(self, small_world):
        course = small_world.catalog.get(3)
        model = SmartUserModel(1)
        model.emotional.intensities["enthusiastic"] = 0.8
        direct = estimated_appeal(None, course, model)
        traits = {"enthusiastic": 0.8}
        assert direct == pytest.approx(course.emotional_appeal(traits))

    def test_build_before_fit(self):
        builder = FeatureBuilder()
        with pytest.raises(Exception):
            builder.build(SumRepository(), {}, [1])


class TestPropensityModel:
    def make_data(self, n=400, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 6))
        w = rng.normal(size=6)
        y = (rng.random(n) < 1 / (1 + np.exp(-x @ w))).astype(int)
        return x, y

    @pytest.mark.parametrize("estimator", ["svm", "logistic", "naive_bayes", "knn"])
    def test_all_estimators_fit_and_rank(self, estimator):
        from repro.ml.metrics import roc_auc

        x, y = self.make_data()
        model = PropensityModel(estimator).fit(x, y)
        proba = model.predict_proba(x)
        assert proba.min() >= 0.0 and proba.max() <= 1.0
        assert roc_auc(y, proba) > 0.6

    def test_unknown_estimator(self):
        with pytest.raises(ValueError):
            PropensityModel("transformer")

    def test_single_class_rejected(self):
        x = np.zeros((10, 2))
        with pytest.raises(ValueError):
            PropensityModel().fit(x, np.ones(10))

    def test_predict_before_fit(self):
        with pytest.raises(Exception):
            PropensityModel().predict_proba(np.zeros((1, 2)))


class TestCampaignEngine:
    def test_population_registered_with_objectives(self, run_engine):
        engine, __ = run_engine
        model = engine.sums.get(0)
        assert "region" in model.objective
        assert len(engine.sums) == 300

    def test_warmup_unscored_plan_scored(self, run_engine):
        __, results = run_engine
        for result in results:
            scores, __o = result.scores_and_outcomes()
            assert len(scores) == result.n_targets  # all scored after warmup

    def test_target_count_matches_fraction(self, run_engine):
        __, results = run_engine
        assert results[0].n_targets == 150

    def test_events_written_per_outcome(self, run_engine):
        engine, results = run_engine
        counts = engine.event_log.count_by_category()
        opened = sum(
            1 for r in engine.history for t in r.touches if t.opened
        )
        assert counts.get("campaign", 0) >= opened  # opens + clicks

    def test_training_rows_accumulate(self, run_engine):
        engine, __ = run_engine
        assert len(engine._training_rows) == 4 * 150

    def test_eit_answers_recorded(self, run_engine):
        engine, __ = run_engine
        answered = [len(m.answered_questions) for m in engine.sums]
        assert np.mean(answered) > 0.5

    def test_sensibilities_emerge(self, run_engine):
        engine, __ = run_engine
        weights = [
            max(m.sensibility.values()) if m.sensibility else 0.0
            for m in engine.sums
        ]
        assert np.mean([w > 0.3 for w in weights]) > 0.1

    def test_personalized_beats_standard_on_average(self, small_world):
        specs = [
            CampaignSpec(f"push-{i:02d}", "push", i, 0.6) for i in range(5, 10)
        ]
        personal = CampaignEngine(small_world, EngineConfig(seed=7))
        personal.register_population()
        personal.ingest_browsing()
        personal_results = personal.run_plan(specs, warmup=None)
        standard = CampaignEngine(small_world, EngineConfig(seed=7))
        standard.register_population()
        standard_results = [
            standard.run_campaign(s, scored=False, personalize=False, retrain=False)
            for s in specs
        ]
        p_rate = np.mean([r.predictive_score for r in personal_results])
        s_rate = np.mean([r.predictive_score for r in standard_results])
        assert p_rate > s_rate

    def test_score_users_requires_model(self, small_world):
        engine = CampaignEngine(small_world, EngineConfig(seed=7))
        engine.register_population()
        with pytest.raises(RuntimeError):
            engine.score_users([0, 1], small_world.catalog.get(0))

    @pytest.mark.parametrize(
        "backend, n_shards", [("object", 4), ("sharded", 1), ("sharded", 3),
                              ("multiproc", 2)],
    )
    def test_engine_builds_on_every_sum_backend(
        self, small_world, backend, n_shards
    ):
        engine = CampaignEngine(
            small_world,
            EngineConfig(seed=7, sum_backend=backend, n_shards=n_shards),
        )
        try:
            engine.register_population()
            assert len(engine.sums) == len(small_world.population)
            reference = CampaignEngine(small_world, EngineConfig(seed=7))
            reference.register_population()
            # same registration on every backend, bit for bit
            assert engine.sums.dumps() == reference.sums.dumps()
            assert getattr(engine.sums, "n_shards", None) == (
                None if backend == "object" else n_shards
            )
        finally:
            close = getattr(engine.sums, "close", None)
            if close is not None:
                close()

    @pytest.mark.parametrize("backend", ["columnar", "bogus"])
    def test_engine_rejects_an_unknown_sum_backend_by_name(
        self, small_world, backend
    ):
        # "columnar" was sharded with one partition; the value is gone
        with pytest.raises(ValueError, match=f"unknown sum_backend '{backend}'"):
            CampaignEngine(small_world, EngineConfig(sum_backend=backend))

    def test_ablation_flags_change_width(self, small_world):
        full = CampaignEngine(small_world, EngineConfig(seed=7))
        lean = CampaignEngine(
            small_world, EngineConfig(seed=7, include_emotional=False)
        )
        full.register_population()
        lean.register_population()
        assert len(full.builder.feature_names(True)) > len(
            lean.builder.feature_names(True)
        )
