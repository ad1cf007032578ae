"""Run traces: everything a finished run exposes for metrics and checks,
and the lean summary that a metrics report reads."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class RunTrace:
    """Complete record of one run.

    Indexing conventions: ``decisions[t-1]`` is the round-``t`` decision for
    ``t = 1..horizon``; ``anchors[i]`` is the intermediate point entering
    round ``i+1`` (so ``anchors[0]`` is the initial one and
    ``anchors[horizon]`` the final leftover); ``queues[t]`` is the queue
    state after the round-``t`` dual update, with ``queues[0] = 0`` and a
    final row ``queues[horizon+1]`` from one extra dual update fed by the
    last decision; ``g_values[t]`` holds the constraint values at ``x_t``
    with row 0 taken at the starting point.

    Each array is stored once: ``x0`` is the view ``anchors[0]``, the
    simplex variant's ``mixed_anchors`` are rebuilt from ``anchors[:-1]``
    on each read, and a ``pd-baseline`` trace's ``decisions`` are the view
    ``anchors[1:]``.
    """

    variant: str
    horizon: int
    dim: int
    n_constraints: int
    decisions: np.ndarray
    anchors: np.ndarray
    queues: np.ndarray
    g_values: np.ndarray
    losses: np.ndarray
    alphas: np.ndarray
    xis: np.ndarray
    gamma: float
    nu: float | None = None
    seed: int | None = None
    config_hash: str = ""
    scenario_id: str = ""

    @property
    def x0(self) -> np.ndarray:
        """The start point, ``anchors[0]``."""
        return self.anchors[0]

    @property
    def mixed_anchors(self) -> np.ndarray | None:
        """The simplex variant's prox centers, one per round; else None."""
        from .algorithm import VARIANT_SIMPLEX, mix_anchor  # it imports us
        return (mix_anchor(self.anchors[:-1], self.nu)
                if self.variant == VARIANT_SIMPLEX else None)

    @property
    def final_queue(self) -> np.ndarray:
        """Queue state after the extra post-run dual update."""
        return self.queues[-1]


@dataclass
class RunSummary:
    """What a metrics report reads of one run.

    ``losses`` (``(T,)``), ``g_values`` (``(T+1, K)``, row 0 at the start
    point) and ``final_queue`` (``(K,)``) as in ``RunTrace``; ``probes`` is
    the start point stacked on the decisions that ``empirical_variation``
    probes, or None for a loss with a coefficient table, whose variation
    estimate reads no point.
    """

    horizon: int
    losses: np.ndarray
    g_values: np.ndarray
    final_queue: np.ndarray
    probes: np.ndarray | None = None

    @property
    def n_constraints(self) -> int:
        return self.g_values.shape[1]
