"""Recurrent layers (LSTM / GRU) used by the prediction baselines."""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, stack


class LSTMCell(Module):
    """Single LSTM cell operating on one time step."""

    def __init__(self, input_size: int, hidden_size: int, seed: int | None = None) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        # Gates are stacked as [input, forget, cell, output] along the last axis.
        self.weight_ih = Parameter(init.xavier_uniform((input_size, 4 * hidden_size), seed=seed))
        self.weight_hh = Parameter(
            init.xavier_uniform((hidden_size, 4 * hidden_size), seed=None if seed is None else seed + 1)
        )
        self.bias = Parameter(init.zeros((4 * hidden_size,)))

    def forward(self, x: Tensor, state: tuple[Tensor, Tensor] | None = None) -> tuple[Tensor, Tensor]:
        x = x if isinstance(x, Tensor) else Tensor(x)
        batch = x.shape[0]
        if state is None:
            hidden = Tensor(np.zeros((batch, self.hidden_size)))
            cell = Tensor(np.zeros((batch, self.hidden_size)))
        else:
            hidden, cell = state
        gates = x @ self.weight_ih + hidden @ self.weight_hh + self.bias
        h = self.hidden_size
        input_gate = gates[:, 0:h].sigmoid()
        forget_gate = gates[:, h:2 * h].sigmoid()
        cell_candidate = gates[:, 2 * h:3 * h].tanh()
        output_gate = gates[:, 3 * h:4 * h].sigmoid()
        new_cell = forget_gate * cell + input_gate * cell_candidate
        new_hidden = output_gate * new_cell.tanh()
        return new_hidden, new_cell


class LSTM(Module):
    """LSTM over a full sequence shaped ``(batch, time, features)``."""

    def __init__(self, input_size: int, hidden_size: int, num_layers: int = 1, seed: int | None = None) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.cells = [
            LSTMCell(
                input_size if layer == 0 else hidden_size,
                hidden_size,
                seed=None if seed is None else seed + 10 * layer,
            )
            for layer in range(num_layers)
        ]

    def forward(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """Run the LSTM over a sequence.

        Returns
        -------
        outputs:
            Hidden states of the last layer at every time step,
            shaped ``(batch, time, hidden)``.
        last_hidden:
            Hidden state of the last layer at the final step,
            shaped ``(batch, hidden)``.
        """
        x = x if isinstance(x, Tensor) else Tensor(x)
        if x.ndim != 3:
            raise ValueError("LSTM expects input of shape (batch, time, features)")
        seq = [x[:, t, :] for t in range(x.shape[1])]
        for cell in self.cells:
            state = None
            layer_out = []
            for step in seq:
                hidden, cell_state = cell(step, state)
                state = (hidden, cell_state)
                layer_out.append(hidden)
            seq = layer_out
        outputs = stack(seq, axis=1)
        return outputs, seq[-1]


class GRUCell(Module):
    """Single GRU cell."""

    def __init__(self, input_size: int, hidden_size: int, seed: int | None = None) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        # Gates stacked as [reset, update] then a separate candidate projection.
        self.weight_ih = Parameter(init.xavier_uniform((input_size, 2 * hidden_size), seed=seed))
        self.weight_hh = Parameter(
            init.xavier_uniform((hidden_size, 2 * hidden_size), seed=None if seed is None else seed + 1)
        )
        self.bias_gates = Parameter(init.zeros((2 * hidden_size,)))
        self.weight_in = Parameter(
            init.xavier_uniform((input_size, hidden_size), seed=None if seed is None else seed + 2)
        )
        self.weight_hn = Parameter(
            init.xavier_uniform((hidden_size, hidden_size), seed=None if seed is None else seed + 3)
        )
        self.bias_candidate = Parameter(init.zeros((hidden_size,)))

    def forward(self, x: Tensor, hidden: Tensor | None = None) -> Tensor:
        x = x if isinstance(x, Tensor) else Tensor(x)
        batch = x.shape[0]
        if hidden is None:
            hidden = Tensor(np.zeros((batch, self.hidden_size)))
        gates = x @ self.weight_ih + hidden @ self.weight_hh + self.bias_gates
        h = self.hidden_size
        reset = gates[:, 0:h].sigmoid()
        update = gates[:, h:2 * h].sigmoid()
        candidate = (x @ self.weight_in + (reset * hidden) @ self.weight_hn + self.bias_candidate).tanh()
        return update * hidden + (1.0 - update) * candidate


class GRU(Module):
    """GRU over a sequence shaped ``(batch, time, features)``."""

    def __init__(self, input_size: int, hidden_size: int, num_layers: int = 1, seed: int | None = None) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.cells = [
            GRUCell(
                input_size if layer == 0 else hidden_size,
                hidden_size,
                seed=None if seed is None else seed + 10 * layer,
            )
            for layer in range(num_layers)
        ]

    def forward(self, x: Tensor) -> tuple[Tensor, Tensor]:
        x = x if isinstance(x, Tensor) else Tensor(x)
        if x.ndim != 3:
            raise ValueError("GRU expects input of shape (batch, time, features)")
        seq = [x[:, t, :] for t in range(x.shape[1])]
        for cell in self.cells:
            hidden = None
            layer_out = []
            for step in seq:
                hidden = cell(step, hidden)
                layer_out.append(hidden)
            seq = layer_out
        outputs = stack(seq, axis=1)
        return outputs, seq[-1]
