"""The Attributes Manager Agent (Fig. 3, component 3).

"This agent is able to create, extract, select, and fuse attributes in
order to evaluate similar attributes for multiple domains of interaction
and also to contrast them in an automatic way.  This agent automatically
detects the level of sensibility of each user for each of his/her dominant
attributes by automatically assigning weights (relevancies)."

Topics:

* ``attributes.analyze`` — payload ``{"user_ids": [...]}``: commit one
  :class:`~repro.core.updates.AnalyzeOp` per given SUM (re-weighting its
  sensibilities) and reply with per-user dominant attributes, read back
  from the store.
* ``attributes.fuse`` — payload ``{"sources": {name: {attr: value}}}``:
  fuse attribute estimates from several domains by precision-weighted
  averaging; replies with the fused estimate.
* ``attributes.select`` — payload ``{"matrix", "names", "labels", "k"}``:
  rank attributes by point-biserial correlation with an outcome and keep
  the top ``k`` (the "selection" capability).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.agents.messages import Message
from repro.agents.runtime import Agent, AgentRuntime
from repro.core.reward import ReinforcementPolicy
from repro.core.sensibility import SensibilityAnalyzer
from repro.core.sum_model import SumRepository
from repro.core.updates import AnalyzeOp


class AttributesManagerAgent(Agent):
    """Sensibility weighting, attribute fusion and selection."""

    def __init__(
        self,
        name: str,
        sums: SumRepository,
        analyzer: SensibilityAnalyzer | None = None,
    ) -> None:
        super().__init__(name)
        self.sums = sums
        self.analyzer = analyzer or SensibilityAnalyzer()

    def handle(self, message: Message, runtime: AgentRuntime) -> Iterable[Message]:
        if message.topic == "attributes.analyze":
            user_ids = message.payload.get("user_ids")
            ids = list(user_ids) if user_ids is not None else self.sums.user_ids()
            self.sums.rows_for(ids)  # unknown users raise before any write
            op = (AnalyzeOp(self.analyzer),)
            # an analysis reads no reinforcement knob: any policy will do
            self.sums.batch_apply_ops([(uid, op) for uid in ids], ReinforcementPolicy())
            threshold = self.analyzer.threshold
            dominant = {
                uid: self.sums.get(uid).dominant_attributes(threshold) for uid in ids
            }
            return [message.reply("attributes.analyzed", {"dominant": dominant})]
        if message.topic == "attributes.fuse":
            sources = message.payload["sources"]
            fused = fuse_attribute_estimates(sources)
            return [message.reply("attributes.fused", {"fused": fused})]
        if message.topic == "attributes.select":
            matrix = np.asarray(message.payload["matrix"], dtype=np.float64)
            names = list(message.payload["names"])
            labels = np.asarray(message.payload["labels"], dtype=np.float64)
            k = int(message.payload.get("k", 10))
            selected = select_attributes(matrix, names, labels, k)
            return [message.reply("attributes.selected", {"selected": selected})]
        raise ValueError(f"{self.name}: unknown topic {message.topic!r}")


def fuse_attribute_estimates(
    sources: dict[str, dict[str, float]],
    weights: dict[str, float] | None = None,
) -> dict[str, float]:
    """Fuse per-domain attribute estimates by weighted averaging.

    ``sources[domain][attribute] = value``; domains missing an attribute
    simply do not vote on it.  Default weights are uniform.
    """
    weights = weights or {domain: 1.0 for domain in sources}
    totals: dict[str, float] = {}
    masses: dict[str, float] = {}
    for domain, estimates in sources.items():
        weight = weights.get(domain, 1.0)
        if weight <= 0:
            continue
        for attribute, value in estimates.items():
            totals[attribute] = totals.get(attribute, 0.0) + weight * value
            masses[attribute] = masses.get(attribute, 0.0) + weight
    return {
        attribute: totals[attribute] / masses[attribute] for attribute in totals
    }


def select_attributes(
    matrix: np.ndarray,
    names: list[str],
    labels: np.ndarray,
    k: int,
) -> list[tuple[str, float]]:
    """Top-``k`` attributes by |point-biserial correlation| with the labels.

    The "attributes which have a high impact on their emotional responses"
    selection of Section 5.2, done the classical filter-method way.
    """
    if matrix.ndim != 2 or matrix.shape[1] != len(names):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match {len(names)} names"
        )
    if len(matrix) != len(labels):
        raise ValueError(f"length mismatch: {len(matrix)} vs {len(labels)}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores = []
    label_std = labels.std()
    for j, name in enumerate(names):
        column = matrix[:, j]
        denominator = column.std() * label_std
        if denominator == 0:
            correlation = 0.0
        else:
            correlation = float(
                np.mean((column - column.mean()) * (labels - labels.mean()))
                / denominator
            )
        scores.append((name, correlation))
    scores.sort(key=lambda item: (-abs(item[1]), item[0]))
    return scores[:k]
