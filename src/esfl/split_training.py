"""Toy dense-network training with an executable split/aggregate semantics.

This module exists to certify the algebra of split training: cutting a
network between a device part and a server part, exchanging the cut
activation forward and its gradient backward, and stepping both sides with
SGD must reproduce monolithic training exactly. The device and server
paths share the same layer primitives in the same order, so the
equivalence holds to floating-point roundoff, and tests can use tight
tolerances. Summation order is fixed; nothing here is parallel.

Federated aggregation is damped: W <- W - eta * (W - weighted mean of
local models), which for eta=1 is plain sample-weighted averaging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

ACTIVATIONS = {
    "identity": (lambda z: z, lambda z: np.ones_like(z)),
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0).astype(z.dtype)),
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
}

LOSSES = ("mse", "softmax_ce")


@dataclass(frozen=True)
class DenseNet:
    """A fully-connected network; weights[j] has shape (in_j, out_j)."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    activations: tuple[str, ...]
    loss: str = "mse"

    def __post_init__(self) -> None:
        if not (len(self.weights) == len(self.biases) == len(self.activations)):
            raise ValueError("weights, biases, activations must have equal length")
        for j in range(1, len(self.weights)):
            if self.weights[j - 1].shape[1] != self.weights[j].shape[0]:
                raise ValueError(f"layer {j} and {j + 1} dimensions do not compose")
        for act in self.activations:
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")

    @property
    def num_layers(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class SplitState:
    """A network split after layer ``cut``, plus the SGD step size."""

    user_side: DenseNet
    server_side: DenseNet
    cut: int
    learning_rate: float


def init_dense_net(
    sizes: Sequence[int],
    activations: Sequence[str] | None = None,
    loss: str = "mse",
    rng: np.random.Generator | None = None,
    scale: float | None = None,
) -> DenseNet:
    """Random network with layer widths ``sizes`` (input first)."""
    rng = rng or np.random.default_rng()
    L = len(sizes) - 1
    if L < 1:
        raise ValueError("need at least one layer")
    if activations is None:
        activations = ["tanh"] * (L - 1) + ["identity"]
    weights, biases = [], []
    for j in range(L):
        s = scale if scale is not None else 1.0 / np.sqrt(sizes[j])
        weights.append(rng.normal(scale=s, size=(sizes[j], sizes[j + 1])))
        biases.append(rng.normal(scale=s, size=sizes[j + 1]))
    return DenseNet(tuple(weights), tuple(biases), tuple(activations), loss)


# ---------------------------------------------------------------------------
# Shared layer primitives; both the monolithic and the split path use these.

def _forward_segment(net: DenseNet, x: np.ndarray):
    """Returns (output, caches); caches[j] = (input, preactivation)."""
    caches = []
    a = x
    for w, b, act in zip(net.weights, net.biases, net.activations):
        z = a @ w + b
        caches.append((a, z))
        a = ACTIVATIONS[act][0](z)
    return a, caches


def _backward_segment(net: DenseNet, caches, d_out: np.ndarray):
    """Chain rule down through a segment; returns (dWs, dbs, d_input)."""
    dws = [None] * net.num_layers
    dbs = [None] * net.num_layers
    da = d_out
    for j in range(net.num_layers - 1, -1, -1):
        a_in, z = caches[j]
        dz = da * ACTIVATIONS[net.activations[j]][1](z)
        dws[j] = a_in.T @ dz
        dbs[j] = dz.sum(axis=0)
        da = dz @ net.weights[j].T
    return dws, dbs, da


def _loss_and_grad(out: np.ndarray, y: np.ndarray, loss: str):
    """Loss value and its gradient w.r.t. the network output."""
    batch = out.shape[0]
    if loss == "mse":
        diff = out - y
        return float(np.sum(diff * diff) / batch), 2.0 * diff / batch
    # softmax cross-entropy over logits, y one-hot
    shifted = out - out.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    probs = expz / expz.sum(axis=1, keepdims=True)
    value = float(-np.sum(y * np.log(np.clip(probs, 1e-300, None))) / batch)
    return value, (probs - y) / batch


def _step(net: DenseNet, dws, dbs, rho: float) -> DenseNet:
    return DenseNet(
        tuple(w - rho * dw for w, dw in zip(net.weights, dws)),
        tuple(b - rho * db for b, db in zip(net.biases, dbs)),
        net.activations,
        net.loss,
    )


def _check_loss_head(net: DenseNet) -> None:
    # softmax cross-entropy consumes logits, so the producing layer must
    # not squash them; checked where the loss is actually evaluated
    if net.loss == "softmax_ce" and net.activations[-1] != "identity":
        raise ValueError("softmax_ce expects identity on the output layer")


def loss_value(net: DenseNet, x: np.ndarray, y: np.ndarray) -> float:
    _check_loss_head(net)
    out, _ = _forward_segment(net, x)
    value, _ = _loss_and_grad(out, y, net.loss)
    return value


def loss_and_grads(net: DenseNet, x: np.ndarray, y: np.ndarray):
    """Full-network analytic gradients; used directly by gradient checks."""
    _check_loss_head(net)
    out, caches = _forward_segment(net, x)
    value, d_out = _loss_and_grad(out, y, net.loss)
    if not np.isfinite(value):
        raise FloatingPointError("non-finite loss")
    dws, dbs, _ = _backward_segment(net, caches, d_out)
    return value, dws, dbs


def monolithic_update(net: DenseNet, batch, rho: float) -> DenseNet:
    """One plain SGD step on the whole network."""
    x, y = batch
    _, dws, dbs = loss_and_grads(net, x, y)
    return _step(net, dws, dbs, rho)


# ---------------------------------------------------------------------------
# Split execution

def split_net(net: DenseNet, cut: int, learning_rate: float) -> SplitState:
    """Split after layer ``cut`` (1-based); both sides must be nonempty."""
    if not 1 <= cut <= net.num_layers - 1:
        raise ValueError(f"cut {cut} out of range 1..{net.num_layers - 1}")
    user = DenseNet(net.weights[:cut], net.biases[:cut],
                    net.activations[:cut], net.loss)
    server = DenseNet(net.weights[cut:], net.biases[cut:],
                      net.activations[cut:], net.loss)
    return SplitState(user, server, cut, learning_rate)


def concatenate(state: SplitState) -> DenseNet:
    """Rebuild the full network from its two sides."""
    return DenseNet(
        state.user_side.weights + state.server_side.weights,
        state.user_side.biases + state.server_side.biases,
        state.user_side.activations + state.server_side.activations,
        state.server_side.loss,
    )


def split_update(state: SplitState, batch) -> SplitState:
    """One split SGD step: device forward, server forward/backward/step,
    activation gradient back to the device, device backward/step."""
    x, y = batch
    if x.shape[1] != state.user_side.weights[0].shape[0]:
        raise ValueError("batch feature dimension does not match the input layer")
    _check_loss_head(state.server_side)
    rho = state.learning_rate

    act_cut, user_caches = _forward_segment(state.user_side, x)
    out, server_caches = _forward_segment(state.server_side, act_cut)
    value, d_out = _loss_and_grad(out, y, state.server_side.loss)
    if not np.isfinite(value):
        raise FloatingPointError("non-finite loss")
    s_dws, s_dbs, d_act = _backward_segment(state.server_side, server_caches, d_out)
    new_server = _step(state.server_side, s_dws, s_dbs, rho)
    # d_act is the loss gradient at the cut activation, returned to the device
    u_dws, u_dbs, _ = _backward_segment(state.user_side, user_caches, d_act)
    new_user = _step(state.user_side, u_dws, u_dbs, rho)
    return SplitState(new_user, new_server, state.cut, rho)


def federated_aggregate(
    global_net: DenseNet,
    local_nets: Sequence[tuple[DenseNet, float]],
    eta: float,
) -> DenseNet:
    """Damped FedAvg: W <- W - eta * (W - sum n_i W_i / N)."""
    if not local_nets:
        raise ValueError("need at least one local model")
    total = float(sum(n for _, n in local_nets))
    if total <= 0:
        raise ValueError("sample counts must be positive")
    for net, _ in local_nets:
        if (
            net.activations != global_net.activations
            or any(w.shape != gw.shape for w, gw in zip(net.weights, global_net.weights))
        ):
            raise ValueError("local model structure does not match the global model")
    mean_w = [
        sum((n / total) * net.weights[j] for net, n in local_nets)
        for j in range(global_net.num_layers)
    ]
    mean_b = [
        sum((n / total) * net.biases[j] for net, n in local_nets)
        for j in range(global_net.num_layers)
    ]
    return DenseNet(
        tuple(w - eta * (w - m) for w, m in zip(global_net.weights, mean_w)),
        tuple(b - eta * (b - m) for b, m in zip(global_net.biases, mean_b)),
        global_net.activations,
        global_net.loss,
    )


@dataclass(frozen=True)
class ToyUser:
    """A client in the toy trainer: its data, cut choice, and epoch count."""

    x: np.ndarray
    y: np.ndarray
    cut: int
    epochs: int = 1

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


def _batches(x, y, batch_size):
    if batch_size is None or batch_size >= len(x):
        yield x, y
        return
    for start in range(0, len(x), batch_size):
        yield x[start:start + batch_size], y[start:start + batch_size]


def esfl_train(
    net: DenseNet,
    users: Sequence[ToyUser],
    rounds: int,
    eta: float = 0.5,
    rho0: float = 0.01,
    batch_size: int | None = None,
):
    """Rounds of distribute -> per-user split epochs -> aggregate.

    Every user trains a split copy of the current global network on its own
    data, the two sides are re-joined, and the sample-weighted models are
    folded into the global one. The step size decays as ``rho0 / (1 + r/100)``
    with the 0-based round index r. Returns the final network and the
    global training loss after each round.
    """
    pooled_x = np.concatenate([u.x for u in users])
    pooled_y = np.concatenate([u.y for u in users])
    trace = []
    for r in range(rounds):
        rho = rho0 / (1.0 + r / 100.0)
        locals_ = []
        for user in users:
            state = split_net(net, user.cut, rho)
            for _ in range(user.epochs):
                for xb, yb in _batches(user.x, user.y, batch_size):
                    state = split_update(state, (xb, yb))
            locals_.append((concatenate(state), float(len(user.x))))
        net = federated_aggregate(net, locals_, eta)
        trace.append(loss_value(net, pooled_x, pooled_y))
    return net, trace


def make_blobs(
    n_samples: int,
    n_classes: int = 2,
    dim: int = 2,
    separation: float = 4.0,
    noise: float = 1.0,
    rng: np.random.Generator | None = None,
):
    """Seeded Gaussian blobs with one-hot labels, classes balanced."""
    rng = rng or np.random.default_rng()
    means = rng.normal(scale=separation, size=(n_classes, dim))
    labels = np.arange(n_samples) % n_classes
    rng.shuffle(labels)
    x = means[labels] + rng.normal(scale=noise, size=(n_samples, dim))
    y = np.zeros((n_samples, n_classes))
    y[np.arange(n_samples), labels] = 1.0
    return x, y
