"""Degenerate blocks: the shifts of a single object with every incident
nonzero morphism invertible.

classify_degenerate reads only the shift-graph, so the `classify` command
loads this module beside the path engine, which gives it the blocks, and
no other command loads it.
"""

from __future__ import annotations

from typing import NamedTuple

from .shiftgraph import ShiftGraph


class NonDegenerate(NamedTuple):
    def to_dict(self):
        return {"kind": "non-degenerate"}


class DegenerateAperiodic(NamedTuple):
    """Shifts of a single object, never self-isomorphic: the derived
    category of a division ring."""

    end_dim: int

    def to_dict(self):
        return {"kind": "degenerate-aperiodic", "end_dim": self.end_dim,
                "model": "derived category of a division ring"}


class DegeneratePeriodic(NamedTuple):
    """Shifts of a single object with X = X[period]: semisimple module
    category with a twisted translation."""

    period: int
    end_dim: int

    def to_dict(self):
        return {"kind": "degenerate-periodic", "period": self.period,
                "end_dim": self.end_dim,
                "model": "semisimple category with cyclically twisted translation"}


def classify_degenerate(g: ShiftGraph, block: list[str]):
    """Degenerate blocks consist of the shifts of a single object with
    every incident nonzero morphism invertible."""
    if len(block) != 1:
        return NonDegenerate()
    x = block[0]
    for e in g.edges_between(x, x):
        if not e.all_iso:
            return NonDegenerate()
    orb = g.orbit(x)
    if orb.period is None:
        return DegenerateAperiodic(orb.end_dim)
    return DegeneratePeriodic(orb.period, orb.end_dim)
