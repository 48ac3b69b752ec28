"""Demand-prediction baselines evaluated in the paper (Section V-B.1).

* :class:`LSTMDemandModel` — an LSTM with a fully connected head and a
  sigmoid activation, applied independently per grid cell (no spatial
  dependencies).
* :class:`GraphWaveNetDemandModel` — a spatial-temporal graph model in the
  spirit of Graph-WaveNet: 1-D dilated convolutions for the temporal trend
  plus diffusion over a *self-adaptive but static* adjacency matrix learned
  as a free parameter (node embeddings), in contrast to DDGNN's *dynamic*,
  input-conditioned adjacency.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.demand.appnp import APPNP
from repro.nn.tensor import Tensor, no_grad, stack


class LSTMDemandModel(nn.Module):
    """Per-cell LSTM demand predictor (baseline i)."""

    def __init__(self, num_cells: int, k: int, history: int, hidden: int = 16, seed: int | None = 0) -> None:
        super().__init__()
        self.num_cells = num_cells
        self.k = k
        self.history = history
        self.hidden = hidden
        self.lstm = nn.LSTM(k, hidden, num_layers=1, seed=seed)
        self.head = nn.Linear(hidden, k, seed=None if seed is None else seed + 5)

    def forward(self, windows: Tensor) -> Tensor:
        """Predict the next window from ``(history, M, k)`` history."""
        windows = windows if isinstance(windows, Tensor) else Tensor(windows)
        if windows.ndim == 4:
            return stack([self.forward(windows[i]) for i in range(windows.shape[0])], axis=0)
        if windows.ndim != 3:
            raise ValueError("expected input of shape (history, M, k)")
        # Treat cells as a batch: (history, M, k) -> (M, history, k).
        per_cell = windows.transpose(1, 0, 2)
        _, last_hidden = self.lstm(per_cell)
        return self.head(last_hidden).sigmoid()

    def predict(self, windows: np.ndarray) -> np.ndarray:
        with no_grad():
            return self.forward(Tensor(windows)).data


class GraphWaveNetDemandModel(nn.Module):
    """Graph-WaveNet-style spatio-temporal baseline (baseline ii).

    The adjacency is *self-adaptive*: ``softmax(relu(E1 E2^T))`` with free
    node-embedding parameters ``E1`` and ``E2`` that do not depend on the
    current input — the key difference from DDGNN's dynamic adjacency.
    """

    def __init__(
        self,
        num_cells: int,
        k: int,
        history: int,
        hidden: int = 16,
        embedding_dim: int = 8,
        num_blocks: int = 2,
        seed: int | None = 0,
    ) -> None:
        super().__init__()
        self.num_cells = num_cells
        self.k = k
        self.history = history
        self.hidden = hidden
        self.input_proj = nn.Linear(k, hidden, seed=seed)
        self.tcn_blocks = [
            nn.GatedTCNBlock(
                hidden, hidden, kernel_size=3, dilation=2 ** block,
                seed=None if seed is None else seed + 50 * (block + 1),
            )
            for block in range(num_blocks)
        ]
        rng = np.random.default_rng(seed)
        self.source_embedding = nn.Parameter(rng.standard_normal((num_cells, embedding_dim)) * 0.1)
        self.target_embedding = nn.Parameter(rng.standard_normal((num_cells, embedding_dim)) * 0.1)
        self.diffusion = APPNP(alpha=0.2, iterations=2, apply_relu=True)
        self.head = nn.Sequential(
            nn.Linear(hidden, hidden, seed=None if seed is None else seed + 9),
            nn.ReLU(),
            nn.Linear(hidden, k, seed=None if seed is None else seed + 10),
        )

    def adaptive_adjacency(self) -> Tensor:
        """Static self-adaptive adjacency learned as free parameters."""
        scores = (self.source_embedding @ self.target_embedding.T).relu()
        return scores.softmax(axis=-1)

    def forward(self, windows: Tensor) -> Tensor:
        windows = windows if isinstance(windows, Tensor) else Tensor(windows)
        if windows.ndim == 4:
            return stack([self.forward(windows[i]) for i in range(windows.shape[0])], axis=0)
        if windows.ndim != 3:
            raise ValueError("expected input of shape (history, M, k)")
        per_cell = windows.transpose(1, 0, 2)
        projected = self.input_proj(per_cell)
        temporal = projected.transpose(0, 2, 1)
        for block in self.tcn_blocks:
            temporal = block(temporal) + temporal
        last_step = temporal[:, :, temporal.shape[2] - 1]
        adjacency = self.adaptive_adjacency()
        propagated = self.diffusion(last_step, adjacency)
        return self.head(propagated + last_step).sigmoid()

    def predict(self, windows: np.ndarray) -> np.ndarray:
        with no_grad():
            return self.forward(Tensor(windows)).data
