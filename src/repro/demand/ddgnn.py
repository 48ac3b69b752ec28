"""Dynamic Dependency-based Graph Neural Network (Section III-C, Fig. 4).

The model predicts the next occupancy window ``c_i^{t0 + P k dT}`` for every
grid cell from ``P`` historical windows.  It follows the paper's block
diagram:

1. a 1x1 convolution lifts the per-cell ``k``-dimensional occupancy vectors
   to a hidden channel space,
2. a stack of *gated dilated causal convolutions* (Eq. 7) extracts temporal
   trends along the window axis,
3. the Demand Dependency Learning Module produces the dynamic adjacency
   matrix ``A^t`` from the most recent window (Eq. 4–6),
4. APPNP propagates each cell's temporal features over that graph
   (Eq. 8–9), with a residual connection,
5. a ReLU + 1x1 convolution head maps back to ``k`` per-cell occupancy
   probabilities (sigmoid).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import nn
from repro.demand.appnp import APPNP
from repro.demand.dependency import DemandDependencyLearner, normalized_adjacency
from repro.nn.tensor import Tensor, no_grad, stack


class DDGNN(nn.Module):
    """DDGNN demand predictor.

    Parameters
    ----------
    num_cells:
        Number of grid cells ``M``.
    k:
        Occupancy dimensions per window (sub-intervals per window).
    history:
        Number of past windows ``P`` fed to the model.
    hidden:
        Hidden channel width of the temporal convolution stack.
    embedding_dim:
        Node-embedding width of the dependency learner.
    alpha:
        APPNP restart probability.
    propagation_steps:
        APPNP power-iteration count ``H``.
    num_blocks:
        Number of gated TCN blocks; block ``b`` uses dilation ``2**b``.
    static_adjacency:
        Optional fixed adjacency matrix.  When given, the dependency
        learner is bypassed — used by the ablation benchmark.
    seed:
        Seed for reproducible initialisation.
    """

    def __init__(
        self,
        num_cells: int,
        k: int,
        history: int,
        hidden: int = 16,
        embedding_dim: int = 16,
        alpha: float = 0.1,
        propagation_steps: int = 2,
        num_blocks: int = 2,
        static_adjacency: Optional[np.ndarray] = None,
        seed: int | None = 0,
    ) -> None:
        super().__init__()
        if history < 1:
            raise ValueError("history must be at least 1")
        self.num_cells = num_cells
        self.k = k
        self.history = history
        self.hidden = hidden
        self.input_proj = nn.Linear(k, hidden, seed=seed)
        self.tcn_blocks = [
            nn.GatedTCNBlock(
                hidden,
                hidden,
                kernel_size=3,
                dilation=2 ** block,
                seed=None if seed is None else seed + 100 * (block + 1),
            )
            for block in range(num_blocks)
        ]
        self.dependency = DemandDependencyLearner(
            feature_dim=k, embedding_dim=embedding_dim, seed=None if seed is None else seed + 7
        )
        self.appnp = APPNP(alpha=alpha, iterations=propagation_steps, apply_relu=True)
        self.output_proj = nn.Sequential(
            nn.Linear(hidden, hidden, seed=None if seed is None else seed + 11),
            nn.ReLU(),
            nn.Linear(hidden, k, seed=None if seed is None else seed + 13),
        )
        self.static_adjacency = (
            None if static_adjacency is None else np.asarray(static_adjacency, dtype=np.float64)
        )
        self._self_loops = Tensor(np.eye(num_cells))

    # ------------------------------------------------------------------ #
    def adjacency(self, last_window: Tensor) -> Tensor:
        """Dynamic adjacency ``A^t`` (or the static override), normalised."""
        if self.static_adjacency is not None:
            return Tensor(normalized_adjacency(self.static_adjacency))
        learned = self.dependency(last_window)
        # The \hat{A} of Eq. 8: self loops are added as constants and every
        # row is renormalised to sum to one; both steps are tensor ops, so
        # the gradient flows through `learned`.
        with_loops = learned + self._self_loops
        degrees = with_loops.sum(axis=1, keepdims=True)
        return with_loops / degrees

    def forward(self, windows: Tensor) -> Tensor:
        """Predict the next window.

        Parameters
        ----------
        windows:
            ``(history, M, k)`` tensor of past occupancy windows (a single
            sample) or ``(batch, history, M, k)``.

        Returns
        -------
        ``(M, k)`` (or ``(batch, M, k)``) tensor of occupancy probabilities.
        """
        windows = windows if isinstance(windows, Tensor) else Tensor(windows)
        if windows.ndim == 4:
            return stack([self.forward(windows[i]) for i in range(windows.shape[0])], axis=0)
        if windows.ndim != 3:
            raise ValueError("expected input of shape (history, M, k)")
        if windows.shape[1] != self.num_cells or windows.shape[2] != self.k:
            raise ValueError(
                f"expected (history, {self.num_cells}, {self.k}), got {windows.shape}"
            )

        # Temporal branch: treat cells as the batch dimension so the causal
        # convolution runs along the window axis for every cell at once.
        # (history, M, k) -> (M, history, k) -> project -> (M, hidden, history)
        per_cell = windows.transpose(1, 0, 2)
        projected = self.input_proj(per_cell)              # (M, history, hidden)
        temporal = projected.transpose(0, 2, 1)            # (M, hidden, history)
        for block in self.tcn_blocks:
            temporal = block(temporal) + temporal          # residual gated TCN
        last_step = temporal[:, :, temporal.shape[2] - 1]  # (M, hidden)

        # Spatial branch: dynamic adjacency from the most recent window.
        adjacency = self.adjacency(windows[windows.shape[0] - 1])
        propagated = self.appnp(last_step, adjacency)
        fused = propagated + last_step                      # residual connection

        logits = self.output_proj(fused)                    # (M, k)
        return logits.sigmoid()

    # ------------------------------------------------------------------ #
    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Inference helper returning a plain NumPy array of probabilities."""
        with no_grad():
            out = self.forward(Tensor(windows))
        return out.data
