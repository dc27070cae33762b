"""The Gradual Emotional Intelligence Test (Gradual EIT).

Section 3 (Initialization stage): "acquisition of users' emotional features
based on a gradual and noninvasive emotional intelligence test".  Section
5.2: "only one question every time that push or newsletters are received
... their impacted emotional attributes related with the questions are
gradually activated".

Design:

* A :class:`QuestionBank` holds :class:`EITQuestion` items, each tied to a
  Four-Branch task family (Table 1) and offering several
  :class:`AnswerOption` choices.  Options carry *activations* — bounded
  deltas on emotional attributes — and an *ability score* in [0, 1] used
  to update the Four-Branch profile (MSCEIT-style consensus scoring).
* :class:`GradualEIT` schedules at most one unanswered question per touch,
  cycling branches so coverage grows evenly, and applies answers to the
  user's :class:`~repro.core.sum_model.SmartUserModel`.
* :meth:`GradualEIT.answer_matrix` exports the sparse user × question
  matrix whose dimensionality the paper reduces before SVM training
  ("the sparsity problem in data", Section 5.2).

The MSCEIT V2.0 item texts are proprietary; the bank here is generated
from templates that preserve the instrument's *structure* — four branches,
two task families each, valence-labelled options — which is all the
learning loop consumes (see DESIGN.md substitution table).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from repro.core.emotions import EMOTION_CATALOG, EMOTION_NAMES, clamp01
from repro.core.four_branch import BRANCHES, BRANCH_ORDER, Branch
from repro.core.sum_model import SmartUserModel


@dataclass(frozen=True)
class AnswerOption:
    """One selectable answer.

    Parameters
    ----------
    text:
        The option label shown to the user.
    activations:
        Emotional-attribute deltas applied when this option is chosen;
        each delta must lie in [-1, 1].
    ability:
        MSCEIT-style correctness/consensus score of this option in [0, 1].
    """

    text: str
    activations: dict[str, float] = field(default_factory=dict)
    ability: float = 0.5

    def __post_init__(self) -> None:
        for name, delta in self.activations.items():
            if name not in EMOTION_CATALOG:
                raise KeyError(f"unknown emotional attribute {name!r}")
            if not -1.0 <= delta <= 1.0:
                raise ValueError(f"activation delta {delta} outside [-1, 1]")
        if not 0.0 <= self.ability <= 1.0:
            raise ValueError(f"ability {self.ability} outside [0, 1]")


@dataclass(frozen=True)
class EITQuestion:
    """One Gradual EIT item tied to a Table 1 task family."""

    qid: str
    prompt: str
    branch: Branch
    task: str
    options: tuple[AnswerOption, ...]

    def __post_init__(self) -> None:
        if len(self.options) < 2:
            raise ValueError(f"question {self.qid} needs >= 2 options")
        if self.task not in BRANCHES[self.branch].tasks:
            raise ValueError(
                f"task {self.task!r} does not belong to branch {self.branch.value}"
            )


class QuestionBank:
    """An ordered, id-unique collection of EIT questions."""

    def __init__(self, questions: Iterable[EITQuestion]) -> None:
        self._questions: dict[str, EITQuestion] = {}
        for question in questions:
            if question.qid in self._questions:
                raise ValueError(f"duplicate question id {question.qid!r}")
            self._questions[question.qid] = question
        self._order = list(self._questions)

    def __len__(self) -> int:
        return len(self._questions)

    def __iter__(self) -> Iterator[EITQuestion]:
        for qid in self._order:
            yield self._questions[qid]

    def __contains__(self, qid: object) -> bool:
        return qid in self._questions

    def get(self, qid: str) -> EITQuestion:
        """Fetch a question by id."""
        try:
            return self._questions[qid]
        except KeyError:
            raise KeyError(f"unknown question {qid!r}") from None

    def question_ids(self) -> list[str]:
        """Question ids in bank order."""
        return list(self._order)

    def by_branch(self, branch: Branch) -> list[EITQuestion]:
        """All questions of one branch, in bank order."""
        return [q for q in self if q.branch is branch]

    @classmethod
    def default_bank(cls, per_task: int = 3, seed: int = 7) -> "QuestionBank":
        """Generate a structured bank: ``per_task`` items per Table 1 task.

        Each question offers one strongly positive option, one mildly
        positive option, one negative option and one opt-out, with
        activations drawn deterministically from ``seed``.
        """
        rng = np.random.default_rng(seed)
        positives = [n for n in EMOTION_NAMES if EMOTION_CATALOG[n].valence > 0]
        negatives = [n for n in EMOTION_NAMES if EMOTION_CATALOG[n].valence < 0]
        prompts = {
            Branch.PERCEIVING: "How does this {subject} make you feel?",
            Branch.FACILITATING: "Which feeling would best help you {subject}?",
            Branch.UNDERSTANDING: "What emotion follows when {subject}?",
            Branch.MANAGING: "What would you do to stay positive when {subject}?",
        }
        subjects = {
            "Faces": "expression in the photo",
            "Pictures": "landscape image",
            "Facilitation": "plan your next training course",
            "Sensations": "compare this mood to a colour",
            "Changes": "your course enrolment is confirmed",
            "Blends": "excitement mixes with worry before an exam",
            "Emotion Management": "a course is harder than expected",
            "Emotional Relations": "a study partner becomes discouraged",
        }
        questions: list[EITQuestion] = []
        for branch in BRANCH_ORDER:
            for task in BRANCHES[branch].tasks:
                for item in range(per_task):
                    strong = positives[int(rng.integers(len(positives)))]
                    mild = positives[int(rng.integers(len(positives)))]
                    negative = negatives[int(rng.integers(len(negatives)))]
                    qid = f"{branch.value[:4]}-{task.replace(' ', '_').lower()}-{item}"
                    prompt = prompts[branch].format(subject=subjects[task])
                    options = (
                        AnswerOption(
                            f"strongly {strong}",
                            {strong: 0.60, mild: 0.25},
                            ability=0.9,
                        ),
                        AnswerOption(
                            f"somewhat {mild}",
                            {mild: 0.30},
                            ability=0.65,
                        ),
                        AnswerOption(
                            f"rather {negative}",
                            {negative: 0.45},
                            ability=0.35,
                        ),
                        AnswerOption("prefer not to say", {}, ability=0.5),
                    )
                    questions.append(EITQuestion(qid, prompt, branch, task, options))
        return cls(questions)


def answer_question(
    model: SmartUserModel, question: EITQuestion, option_index: int
) -> AnswerOption:
    """Apply one answer to the SUM (Initialization-stage update).

    Emotional activations are applied attribute-wise; the option's
    ability score updates the question's Four-Branch branch, and the
    question counts as asked and answered.
    """
    if not 0 <= option_index < len(question.options):
        raise IndexError(
            f"option {option_index} out of range for {question.qid}"
        )
    option = question.options[option_index]
    for name, delta in option.activations.items():
        model.activate_emotion(name, delta)
    model.observe_branch(question.branch, option.ability)
    model.asked_questions.add(question.qid)
    model.answered_questions.add(question.qid)
    return option


@dataclass
class AnswerRecord:
    """One recorded answer: who, which question, which option."""

    user_id: int
    qid: str
    option_index: int


class GradualEIT:
    """The one-question-per-touch scheduler and answer processor."""

    def __init__(self, bank: QuestionBank) -> None:
        self.bank = bank
        self.records: list[AnswerRecord] = []

    def next_question(self, model: SmartUserModel) -> EITQuestion | None:
        """The next unasked question for this user, or None when exhausted.

        Branch coverage is balanced: the branch with the fewest questions
        already asked of this user goes first (ties broken by Table 1
        order), so the Four-Branch profile fills in evenly.
        """
        asked_by_branch = {branch: 0 for branch in BRANCH_ORDER}
        for qid in model.asked_questions:
            if qid in self.bank:
                asked_by_branch[self.bank.get(qid).branch] += 1
        for branch in sorted(
            BRANCH_ORDER, key=lambda b: (asked_by_branch[b], BRANCH_ORDER.index(b))
        ):
            for question in self.bank.by_branch(branch):
                if question.qid not in model.asked_questions:
                    return question
        return None

    def ask(self, model: SmartUserModel) -> EITQuestion | None:
        """Pick the next question and mark it as asked (possibly unanswered)."""
        question = self.next_question(model)
        if question is not None:
            model.asked_questions.add(question.qid)
        return question

    def record_answer(
        self, model: SmartUserModel, question: EITQuestion, option_index: int
    ) -> AnswerOption:
        """Apply one answer to the SUM (:func:`answer_question`) and log
        it in :attr:`records`, the source of :meth:`answer_matrix`."""
        option = answer_question(model, question, option_index)
        self.records.append(AnswerRecord(model.user_id, question.qid, option_index))
        return option

    # -- the sparse answer matrix (Section 5.2) ------------------------------

    def answer_matrix(
        self, user_ids: Sequence[int]
    ) -> tuple[sp.csr_matrix, list[str]]:
        """User × question matrix of chosen-option ability scores.

        Unanswered cells are structural zeros — this is the sparse matrix
        whose dimensionality Section 5.2 reduces before SVM training.
        Returns ``(matrix, question_ids)`` with rows following ``user_ids``.
        """
        question_ids = self.bank.question_ids()
        question_pos = {qid: j for j, qid in enumerate(question_ids)}
        user_pos = {int(uid): i for i, uid in enumerate(user_ids)}
        rows, cols, data = [], [], []
        for record in self.records:
            row = user_pos.get(record.user_id)
            col = question_pos.get(record.qid)
            if row is None or col is None:
                continue
            ability = self.bank.get(record.qid).options[record.option_index].ability
            rows.append(row)
            cols.append(col)
            # Shift abilities off zero so "answered with ability 0" is
            # distinguishable from "never answered".
            data.append(clamp01(ability) + 0.01)
        matrix = sp.csr_matrix(
            (data, (rows, cols)),
            shape=(len(user_ids), len(question_ids)),
            dtype=np.float64,
        )
        # Collapse duplicate (user, question) answers by keeping the sum;
        # re-asked questions are rare and the magnitude stays bounded.
        matrix.sum_duplicates()
        return matrix, question_ids

    def sparsity(self, user_ids: Sequence[int]) -> float:
        """Fraction of empty cells in the answer matrix (the paper's problem)."""
        matrix, __ = self.answer_matrix(user_ids)
        total = matrix.shape[0] * matrix.shape[1]
        return 1.0 - (matrix.nnz / total) if total else 1.0
