"""Refinement work counters computed from the public ``Coloring`` sequence.

An entity-round is one entity (node or k-tuple) processed in one
refinement round. It is useful when the entity's class splits in that
round, that is, when the class's members receive more than one new color.
Nothing here looks inside the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WorkCounters:
    rounds: int
    classes: int
    entity_rounds: int
    useful_entity_rounds: int

    @property
    def useful_share(self) -> float:
        return self.useful_entity_rounds / self.entity_rounds if self.entity_rounds else 0.0


def split_members(prev, new) -> int:
    """Entities of ``prev`` classes that receive more than one color in ``new``."""
    prev = np.asarray(prev, dtype=np.int64)
    new = np.asarray(new, dtype=np.int64)
    if prev.size == 0:
        return 0
    width = int(new.max()) + 1
    parents, images = np.unique(np.unique(prev * width + new) // width, return_counts=True)
    split = parents[images > 1]
    return int(np.isin(prev, split).sum())


def work_counters(colorings) -> WorkCounters:
    """Counters over rounds 1..R of ``colorings`` (iteration 0 is the initial coloring)."""
    colors = [c.colors for c in colorings]
    entities = len(colors[0]) if colors else 0
    rounds = len(colors) - 1
    useful = sum(split_members(a, b) for a, b in zip(colors, colors[1:]))
    return WorkCounters(
        rounds=rounds,
        classes=colorings[-1].num_classes if colorings else 0,
        entity_rounds=entities * rounds,
        useful_entity_rounds=useful,
    )
