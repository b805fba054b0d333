"""Toy dense-network training with an executable split/aggregate semantics.

This module exists to certify the algebra of split training: cutting a
network between a device part and a server part, exchanging the cut
activation forward and its gradient backward, and stepping both sides with
SGD must reproduce monolithic training exactly. The device and server
paths share the same layer primitives in the same order, so the
equivalence holds to floating-point roundoff, and tests can use tight
tolerances. Summation order is fixed.

Every primitive is rank-generic: a network's arrays may carry leading
group axes, ``weights[j]`` of shape ``(..., in_j, out_j)`` against a batch
``x`` of shape ``(..., n, in_0)``, and ``np.matmul`` steps each group member
as its own network. :func:`esfl_train` uses this to train the users that
share a cut, a sample count and an epoch count as one stacked split update,
as the clients of a split federated round train in parallel; each member's
arithmetic is exactly that of a lone user.

Backpropagation reads each layer's derivative from the forward pass's
cached output (tanh' = 1 - a**2, identity passes the gradient through) and
computes a segment's input gradient only for the server side, whose
gradient at the cut goes back to the device.

Federated aggregation is damped: W <- W - eta * (W - weighted mean of
local models), which for eta=1 is plain sample-weighted averaging. The
local models arrive as one stacked network, one member per user, and are
averaged with one weighted sum over the member axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# name -> (activation, derivative from the cached preactivation z and
# output a); None marks the identity, whose derivative is 1
ACTIVATIONS = {
    "identity": (lambda z: z, None),
    "relu": (lambda z: np.maximum(z, 0.0), lambda z, a: z > 0),
    "tanh": (np.tanh, lambda z, a: 1.0 - a ** 2),
}

LOSSES = ("mse", "softmax_ce")


@dataclass(frozen=True)
class DenseNet:
    """A fully-connected network; weights[j] has shape (..., in_j, out_j).

    Leading axes, if any, index the members of a stacked group.
    """

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    activations: tuple[str, ...]
    loss: str = "mse"

    def __post_init__(self) -> None:
        if not (len(self.weights) == len(self.biases) == len(self.activations)):
            raise ValueError("weights, biases, activations must have equal length")
        for j in range(1, len(self.weights)):
            if self.weights[j - 1].shape[-1] != self.weights[j].shape[-2]:
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
    """Returns (output, caches); caches[j] = (input, preactivation, output)."""
    caches = []
    a_in = x
    for w, b, act in zip(net.weights, net.biases, net.activations):
        z = a_in @ w + b[..., None, :]
        a = ACTIVATIONS[act][0](z)
        caches.append((a_in, z, a))
        a_in = a
    return a_in, caches


def _backward_segment(net: DenseNet, caches, d_out: np.ndarray,
                      input_grad: bool = False):
    """Chain rule down through a segment; returns (dWs, dbs, d_input).

    d_input is the gradient at the segment's input when ``input_grad`` is
    set, else None."""
    dws = [None] * net.num_layers
    dbs = [None] * net.num_layers
    da = d_out
    for j in range(net.num_layers - 1, -1, -1):
        a_in, z, a = caches[j]
        derivative = ACTIVATIONS[net.activations[j]][1]
        dz = da if derivative is None else da * derivative(z, a)
        dws[j] = a_in.swapaxes(-1, -2) @ dz
        dbs[j] = dz.sum(axis=-2)
        da = dz @ net.weights[j].swapaxes(-1, -2) if j or input_grad else None
    return dws, dbs, da


def _loss_and_grad(out: np.ndarray, y: np.ndarray, loss: str):
    """Loss value per group member and its gradient w.r.t. the output."""
    batch = out.shape[-2]
    if loss == "mse":
        diff = out - y
        return (diff * diff).sum(axis=(-2, -1)) / batch, 2.0 * diff / batch
    # softmax cross-entropy over logits, y one-hot
    shifted = out - out.max(axis=-1, keepdims=True)
    expz = np.exp(shifted)
    probs = expz / expz.sum(axis=-1, keepdims=True)
    value = -(y * np.log(np.maximum(probs, 1e-300))).sum(axis=(-2, -1)) / batch
    return value, (probs - y) / batch


def _check_finite(value) -> None:
    if not np.isfinite(value).all():
        raise FloatingPointError("non-finite loss")


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
    return float(value)


def loss_and_grads(net: DenseNet, x: np.ndarray, y: np.ndarray):
    """Full-network analytic gradients; used directly by gradient checks."""
    _check_loss_head(net)
    out, caches = _forward_segment(net, x)
    value, d_out = _loss_and_grad(out, y, net.loss)
    _check_finite(value)
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
    activation gradient back to the device, device backward/step.

    With stacked sides and a stacked batch, every member steps at once."""
    x, y = batch
    if x.shape[-1] != state.user_side.weights[0].shape[-2]:
        raise ValueError("batch feature dimension does not match the input layer")
    _check_loss_head(state.server_side)
    rho = state.learning_rate

    act_cut, user_caches = _forward_segment(state.user_side, x)
    out, server_caches = _forward_segment(state.server_side, act_cut)
    value, d_out = _loss_and_grad(out, y, state.server_side.loss)
    _check_finite(value)
    s_dws, s_dbs, d_act = _backward_segment(state.server_side, server_caches, d_out,
                                            input_grad=True)
    new_server = _step(state.server_side, s_dws, s_dbs, rho)
    # d_act is the loss gradient at the cut activation, returned to the device
    u_dws, u_dbs, _ = _backward_segment(state.user_side, user_caches, d_act)
    new_user = _step(state.user_side, u_dws, u_dbs, rho)
    return SplitState(new_user, new_server, state.cut, rho)


def federated_aggregate(
    global_net: DenseNet,
    members: DenseNet,
    counts: Sequence[float],
    eta: float,
) -> DenseNet:
    """Damped FedAvg: W <- W - eta * (W - sum n_i W_i / N).

    ``members`` stacks the local models along a leading axis, one member per
    entry of ``counts``, their sample counts n_i; N is the plain sum of them.
    """
    if not len(counts):
        raise ValueError("need at least one local model")
    total = float(sum(counts))
    if total <= 0:
        raise ValueError("sample counts must be positive")
    lead = (len(counts),)
    if members.activations != global_net.activations or any(
        m.shape != lead + g.shape
        for m, g in zip(members.weights + members.biases,
                        global_net.weights + global_net.biases)
    ):
        raise ValueError("local model structure does not match the global model")
    share = np.asarray(counts, dtype=float) / total

    def mean(stacked: np.ndarray) -> np.ndarray:
        return (stacked * share.reshape(lead + (1,) * (stacked.ndim - 1))).sum(axis=0)

    return DenseNet(
        tuple(w - eta * (w - mean(m))
              for w, m in zip(global_net.weights, members.weights)),
        tuple(b - eta * (b - mean(m))
              for b, m in zip(global_net.biases, members.biases)),
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
    """Minibatches along the sample axis, the second to last."""
    n = x.shape[-2]
    if batch_size is None or batch_size >= n:
        yield x, y
        return
    for start in range(0, n, batch_size):
        rows = slice(start, start + batch_size)
        yield x[..., rows, :], y[..., rows, :]


def _cut_groups(users: Sequence[ToyUser]) -> list[list[int]]:
    """Indices of the users that train as one stack, in first-appearance
    order: those with the same cut, epoch count and data shapes."""
    groups: dict[tuple, list[int]] = {}
    for i, u in enumerate(users):
        groups.setdefault((u.cut, u.epochs, u.x.shape, u.y.shape), []).append(i)
    return list(groups.values())


def _stacked(net: DenseNet, size: int) -> DenseNet:
    """``size`` copies of ``net`` stacked along a new leading axis."""
    def stack(arrays):
        return tuple(np.repeat(a[None], size, axis=0) for a in arrays)
    return DenseNet(stack(net.weights), stack(net.biases), net.activations, net.loss)


def _joined(nets: Sequence[DenseNet], order: np.ndarray) -> DenseNet:
    """Stacked ``nets`` laid end to end along the member axis, members then
    taken in ``order``."""
    def join(layers):
        return tuple(np.concatenate(stacks)[order] for stacks in zip(*layers))
    return DenseNet(join(n.weights for n in nets), join(n.biases for n in nets),
                    nets[0].activations, nets[0].loss)


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
    folded into the global one, in user order. Users that share a cut, an
    epoch count and data shapes train as one stacked split update. The step
    size decays as ``rho0 / (1 + r/100)`` with the 0-based round index r;
    ``rho0`` must be positive and ``eta`` lie in (0, 1], so that every round
    trains. Returns the final network and the global training loss after
    each round.
    """
    if not rho0 > 0:
        raise ValueError(f"rho0 must be positive, not {rho0!r}")
    if not 0 < eta <= 1:
        raise ValueError(f"eta must lie in (0, 1], not {eta!r}")
    pooled_x = np.concatenate([u.x for u in users])
    pooled_y = np.concatenate([u.y for u in users])
    counts = [float(len(u.x)) for u in users]
    cut_groups = _cut_groups(users)
    # stacked position -> user order, for the group stacks laid end to end
    order = np.argsort([i for members in cut_groups for i in members])
    groups = [
        (users[members[0]], len(members),
         np.stack([users[i].x for i in members]),
         np.stack([users[i].y for i in members]))
        for members in cut_groups
    ]
    trace = []
    for r in range(rounds):
        rho = rho0 / (1.0 + r / 100.0)
        trained = []
        for lead, size, x, y in groups:
            state = split_net(_stacked(net, size), lead.cut, rho)
            for _ in range(lead.epochs):
                for xb, yb in _batches(x, y, batch_size):
                    state = split_update(state, (xb, yb))
            trained.append(concatenate(state))
        net = federated_aggregate(net, _joined(trained, order), counts, eta)
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
