"""Advice stage, the served paper functions, Fig. 4 pipeline, Human Values."""

import numpy as np
import pytest

from repro.core.advice import AdviceEngine, DomainProfile
from repro.core.gradual_eit import GradualEIT, QuestionBank
from repro.core.human_values import HumanValuesScale
from repro.core.pipeline import EmotionalContextPipeline
from repro.core.sum_model import SmartUserModel, SumRepository
from repro.serving import (
    RecommendationRequest,
    RecommendationService,
    SelectionRequest,
)


def make_profile():
    return DomainProfile(
        "training",
        {
            "enthusiastic": {"innovative": 0.8},
            "frightened": {"challenging": -0.6, "supportive": 0.5},
        },
    )


class TestDomainProfile:
    def test_unknown_emotion_rejected(self):
        with pytest.raises(KeyError):
            DomainProfile("d", {"bliss": {"x": 0.5}})

    def test_gain_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            DomainProfile("d", {"hopeful": {"x": 1.5}})

    def test_item_attributes_sorted(self):
        assert make_profile().item_attributes() == [
            "challenging", "innovative", "supportive",
        ]

    def test_layout_computed_once_and_cached(self):
        profile = make_profile()
        first = profile.layout()
        assert profile.layout() is first  # same tuple, not a rebuild
        emotions, attributes, gains = first
        assert emotions == tuple(sorted(profile.links))
        assert list(attributes) == profile.item_attributes()
        assert gains.shape == (len(emotions), len(attributes))
        assert not gains.flags.writeable  # shared across calls: read-only

    def test_layout_gains_match_links(self):
        emotions, attributes, gains = make_profile().layout()
        assert gains[emotions.index("frightened"),
                     attributes.index("challenging")] == -0.6
        assert gains[emotions.index("enthusiastic"),
                     attributes.index("supportive")] == 0.0  # absent link


class TestAdviceEngine:
    def test_neutral_user_all_ones(self):
        boosts = AdviceEngine().boosts(SmartUserModel(1), make_profile())
        assert all(v == 1.0 for v in boosts.values())

    def test_activation_boosts_linked_attribute(self):
        model = SmartUserModel(1)
        model.activate_emotion("enthusiastic", 1.0)
        model.set_sensibility("enthusiastic", 1.0)
        boosts = AdviceEngine(gain_scale=0.5).boosts(model, make_profile())
        assert boosts["innovative"] == pytest.approx(1.4)

    def test_inhibition_lowers_linked_attribute(self):
        model = SmartUserModel(1)
        model.activate_emotion("frightened", 1.0)
        model.set_sensibility("frightened", 1.0)
        boosts = AdviceEngine(gain_scale=0.5).boosts(model, make_profile())
        assert boosts["challenging"] == pytest.approx(0.7)
        assert boosts["supportive"] == pytest.approx(1.25)

    def test_boosts_always_positive(self):
        model = SmartUserModel(1)
        model.activate_emotion("frightened", 1.0)
        model.set_sensibility("frightened", 1.0)
        boosts = AdviceEngine(gain_scale=1.0).boosts(model, make_profile())
        assert all(v > 0 for v in boosts.values())

    def test_adjust_scores_presence_weighted(self):
        model = SmartUserModel(1)
        model.activate_emotion("enthusiastic", 1.0)
        model.set_sensibility("enthusiastic", 1.0)
        engine = AdviceEngine(gain_scale=0.5)
        adjusted = engine.adjust_scores(
            {"a": 1.0, "b": 1.0},
            {"a": {"innovative": 1.0}, "b": {"innovative": 0.0}},
            model,
            make_profile(),
        )
        assert adjusted["a"] > adjusted["b"] == pytest.approx(1.0)

    def test_gain_scale_validation(self):
        with pytest.raises(ValueError):
            AdviceEngine(gain_scale=0.0)


class TestServedFunctions:
    """The paper's two functions (Section 5.4), served by the service."""

    ITEMS = {
        "course-innovative": {"innovative": 1.0},
        "course-challenging": {"challenging": 1.0},
        "course-plain": {},
    }

    def make_service(self, repo):
        service = RecommendationService(
            sums=repo,
            domain_profile=make_profile(),
            item_attributes=self.ITEMS,
        )
        service.register("base", lambda model, item: 0.5)
        return service

    @staticmethod
    def one_user(emotion):
        repo = SumRepository()
        model = repo.get_or_create(1)
        model.activate_emotion(emotion, 1.0)
        model.set_sensibility(emotion, 1.0)
        return repo

    def test_enthusiastic_user_gets_innovative_first(self):
        service = self.make_service(self.one_user("enthusiastic"))
        response = service.recommend(RecommendationRequest(
            user_id=1,
            items=["course-plain", "course-innovative", "course-challenging"],
            k=5,
        ))
        assert response.items[0] == "course-innovative"

    def test_frightened_user_avoids_challenging(self):
        service = self.make_service(self.one_user("frightened"))
        response = service.recommend(RecommendationRequest(
            user_id=1, items=["course-challenging", "course-plain"], k=2
        ))
        assert response.items[-1] == "course-challenging"

    def test_select_users_ranks_by_adjusted_score(self):
        repo = self.one_user("enthusiastic")
        repo.get_or_create(2)
        ranked = self.make_service(repo).select_users(
            SelectionRequest(item="course-innovative")
        ).pairs()
        assert ranked[0][0] == 1
        assert ranked[0][1] > ranked[1][1]

    def test_score_matrix_shape(self):
        repo = SumRepository()
        repo.get_or_create(1)
        repo.get_or_create(2)
        ids = repo.user_ids()
        matrix = self.make_service(repo).score_matrix(
            ids, ["course-plain", "course-innovative"]
        )
        assert matrix.shape == (2, 2)
        assert ids == [1, 2]


class TestPipeline:
    def setup_method(self):
        self.eit = GradualEIT(QuestionBank.default_bank(per_task=1))
        self.pipeline = EmotionalContextPipeline(self.eit)
        self.model = SmartUserModel(1)

    def test_touch_asks_question(self):
        result = self.pipeline.run_touch(self.model, None, engaged=False)
        assert result.question_asked is not None
        assert not result.question_answered

    def test_touch_with_answer_applies_it(self):
        result = self.pipeline.run_touch(self.model, 0, engaged=False)
        assert result.question_answered
        assert len(self.model.answered_questions) == 1

    def test_engagement_rewards_attributes(self):
        result = self.pipeline.run_touch(
            self.model, None, engaged=True, engaged_attributes=("hopeful",)
        )
        assert result.rewarded == ("hopeful",)
        assert self.model.emotional["hopeful"] > 0

    def test_ignoring_punishes(self):
        self.model.activate_emotion("hopeful", 0.5)
        result = self.pipeline.run_touch(
            self.model, None, engaged=False, engaged_attributes=("hopeful",)
        )
        assert result.punished == ("hopeful",)
        assert self.model.emotional["hopeful"] < 0.5

    def test_convergence_increases_with_aligned_answers(self):
        latent = np.zeros(10)
        latent[0] = 1.0  # catalog order: enthusiastic first
        before = self.pipeline.convergence(self.model, latent)
        self.model.activate_emotion("enthusiastic", 0.9)
        after = self.pipeline.convergence(self.model, latent)
        assert after > before

    def test_convergence_shape_check(self):
        with pytest.raises(ValueError):
            self.pipeline.convergence(self.model, np.zeros(3))


class TestHumanValues:
    def test_starts_neutral(self):
        scale = HumanValuesScale()
        assert all(v == 0.5 for v in scale.weights.values())

    def test_observe_action_moves_toward_signal(self):
        scale = HumanValuesScale(learning_rate=0.5)
        scale.observe_action({"achievement": 1.0})
        assert scale["achievement"] == pytest.approx(0.75)

    def test_unknown_value_rejected(self):
        with pytest.raises(KeyError):
            HumanValuesScale().observe_action({"power": 1.0})
        with pytest.raises(KeyError):
            HumanValuesScale()["power"]

    def test_ranking_order(self):
        scale = HumanValuesScale()
        scale.observe_action({"hedonism": 1.0, "security": 0.0})
        ranking = scale.ranking()
        assert ranking.index("hedonism") < ranking.index("security")

    def test_coherence_identical_orders(self):
        scale = HumanValuesScale()
        scale.observe_action({"achievement": 1.0, "security": 0.0})
        stated = {"achievement": 1.0, "security": 0.0}
        assert scale.coherence(stated) == 1.0

    def test_coherence_reversed_orders_low(self):
        scale = HumanValuesScale(learning_rate=1.0)
        scale.observe_action({"achievement": 1.0, "security": 0.2, "hedonism": 0.0})
        reversed_stated = {"achievement": 0.0, "security": 0.5, "hedonism": 1.0}
        assert scale.coherence(reversed_stated) < 0.5

    def test_coherence_single_shared_value_is_one(self):
        assert HumanValuesScale().coherence({"achievement": 1.0}) == 1.0
