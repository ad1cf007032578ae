"""Run traces: everything a finished run exposes for metrics and checks."""
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
    """

    variant: str
    horizon: int
    dim: int
    n_constraints: int
    x0: np.ndarray
    decisions: np.ndarray
    anchors: np.ndarray
    queues: np.ndarray
    g_values: np.ndarray
    losses: np.ndarray
    alphas: np.ndarray
    xis: np.ndarray
    gamma: float
    eta: float
    nu: float | None = None
    mixed_anchors: np.ndarray | None = None
    seed: int | None = None
    config_hash: str = ""
    scenario_id: str = ""

    @property
    def final_queue(self) -> np.ndarray:
        """Queue state after the extra post-run dual update."""
        return self.queues[-1]
