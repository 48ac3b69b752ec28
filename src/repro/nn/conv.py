"""1-D convolutions, including the dilated causal convolution used by DDGNN.

The paper's temporal module (Eq. 3 and Eq. 7) is a *gated* dilated causal
convolution: two parallel dilated causal convolutions whose outputs are
combined as ``tanh(a) * sigmoid(b)``.  :class:`GatedTCNBlock` implements
exactly that combination; :class:`CausalConv1d` provides the underlying
left-padded convolution so that an output at step ``t`` only depends on
inputs at steps ``<= t``.
"""

from __future__ import annotations

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, pad


class Conv1d(Module):
    """Plain 1-D convolution over inputs shaped ``(batch, channels, length)``.

    Parameters
    ----------
    in_channels, out_channels:
        Number of input and output channels.
    kernel_size:
        Width of the convolution filter (the paper uses ``K = 3``).
    dilation:
        Spacing between kernel taps (Eq. 3's skipping distance ``d``).
    padding:
        Symmetric zero padding added to both ends of the sequence.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        dilation: int = 1,
        padding: int = 0,
        bias: bool = True,
        seed: int | None = None,
    ) -> None:
        super().__init__()
        if kernel_size < 1 or dilation < 1:
            raise ValueError("kernel_size and dilation must be >= 1")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.dilation = dilation
        self.padding = padding
        # weight[k] maps in_channels -> out_channels for kernel tap k.
        self.weight = Parameter(
            init.xavier_uniform((kernel_size, in_channels, out_channels), seed=seed)
        )
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    @property
    def receptive_field(self) -> int:
        """Number of input steps each output step can see."""
        return (self.kernel_size - 1) * self.dilation + 1

    def forward(self, x: Tensor) -> Tensor:
        x = x if isinstance(x, Tensor) else Tensor(x)
        if x.ndim != 3:
            raise ValueError("Conv1d expects input of shape (batch, channels, length)")
        if x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected {self.in_channels} input channels, got {x.shape[1]}"
            )
        padded = pad(x, self.padding, self.padding) if self.padding else x
        length = padded.shape[2]
        out_length = length - (self.kernel_size - 1) * self.dilation
        if out_length <= 0:
            raise ValueError(
                "input sequence too short for this kernel size and dilation"
            )
        # (batch, channels, length) -> (batch, length, channels) so that each
        # tap can be applied as a matrix product against (in, out) weights.
        moved = padded.transpose(0, 2, 1)
        out = None
        for k in range(self.kernel_size):
            start = k * self.dilation
            window = moved[:, start:start + out_length, :]
            term = window @ self.weight[k]
            out = term if out is None else out + term
        if self.bias is not None:
            out = out + self.bias
        return out.transpose(0, 2, 1)


class CausalConv1d(Conv1d):
    """Dilated *causal* convolution (left padding only, same output length)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        dilation: int = 1,
        bias: bool = True,
        seed: int | None = None,
    ) -> None:
        super().__init__(
            in_channels,
            out_channels,
            kernel_size,
            dilation=dilation,
            padding=0,
            bias=bias,
            seed=seed,
        )

    def forward(self, x: Tensor) -> Tensor:
        x = x if isinstance(x, Tensor) else Tensor(x)
        left = (self.kernel_size - 1) * self.dilation
        return super().forward(pad(x, left, 0) if left else x)


class GatedTCNBlock(Module):
    """Gated temporal convolution: ``tanh(conv_f(x)) * sigmoid(conv_g(x))``.

    This is Eq. 7 of the paper.  The tanh branch extracts the temporal
    features while the sigmoid branch acts as an information-flow gate.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        dilation: int = 1,
        seed: int | None = None,
    ) -> None:
        super().__init__()
        seed_filter = None if seed is None else seed
        seed_gate = None if seed is None else seed + 1
        self.filter_conv = CausalConv1d(
            in_channels, out_channels, kernel_size, dilation=dilation, seed=seed_filter
        )
        self.gate_conv = CausalConv1d(
            in_channels, out_channels, kernel_size, dilation=dilation, seed=seed_gate
        )

    def forward(self, x: Tensor) -> Tensor:
        return self.filter_conv(x).tanh() * self.gate_conv(x).sigmoid()
