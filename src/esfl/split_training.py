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
share a sample count and an epoch count as one stack, as the clients of a
split federated round train in parallel; each member's arithmetic is
exactly that of a lone user. The cut moves layers between the device and
the server but does not change that arithmetic, so a stack mixes cuts and
runs one full-network gradient pass per minibatch; the tests pin it bit
for bit to a per-cut stacked split update. The trainer owns its local
models: one flat float64 buffer holds a row of parameters per user (w0, b0,
w1, b1, ...), each stack's network is a view into its rows, built and
validated once per run, and every minibatch writes its gradients into a
buffer of the same layout and steps the stack with one in-place
subtraction. The minibatches are sliced once per run, and each stack
steps in arrays built once per minibatch length (:func:`_step_work`):
each layer's output, dz and input gradient, and the loss's two. The
global loss over the pooled data, the incoming network's before round 0
and each round's after it, is evaluated in the arrays of the first
evaluation. Either way each operation and its order are those that
:func:`loss_value`, :func:`loss_and_grads` and :func:`split_update` run
in new arrays; split_update returns a new state, leaving its input alone.
Below 8 classes, the softmax runs in a class-major copy, whose class axis
numpy reduces and broadcasts over in whole-array passes, with the bits of
its row reductions (:func:`_softmax`).

The forward pass caches each layer's (input, output), and backpropagation
reads each derivative from the output: tanh' = 1 - a**2, relu' = a > 0,
which holds where z > 0 does, and identity passes the gradient through. It
computes an input gradient at every layer but the network's first: on the
split path the server side also forms the gradient at its input, the cut,
which goes back to the device.

Federated aggregation is damped: W <- W - eta * (W - weighted mean of
local models), which for eta=1 is plain sample-weighted averaging. The
local models arrive as one stacked network, one member per user, and are
averaged with one weighted sum over the member axis; :func:`esfl_train`
runs that arithmetic on its flat rows and a flat global vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import COUNT, FINITE, NUMBER, POSITIVE, between, check

# name -> (activation, and derivative from the output a; each is written
# into ``out`` when it is given); None marks the identity, whose output is
# its input and whose derivative is 1. Relu's a > 0 holds where z > 0 does:
# max(z, 0) keeps a NaN, and is a zero for every other z <= 0
ACTIVATIONS = {
    "identity": (lambda z, out=None: z, None),
    "relu": (lambda z, out=None: np.maximum(z, 0.0, out=out),
             lambda a, out=None: np.greater(a, 0.0, out=out)),
    "tanh": (np.tanh,
             lambda a, out=None: np.subtract(1.0, np.multiply(a, a, out=out), out=out)),
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

def _forward_segment(net: DenseNet, x: np.ndarray, work=None):
    """Returns (output, caches); caches[j] = (input, output) of layer j.

    Each layer's activation is written over its preactivation, in a new
    array unless ``work`` holds one array per layer, shaped as its output:
    then each layer is evaluated in its array."""
    caches = []
    a_in = x
    for j, (w, b, act) in enumerate(zip(net.weights, net.biases, net.activations)):
        z = np.matmul(a_in, w, out=None if work is None else work[j])
        a = ACTIVATIONS[act][0](np.add(z, b[..., None, :], out=z), out=z)
        caches.append((a_in, a))
        a_in = a
    return a_in, caches


def _backward_segment(net: DenseNet, caches, d_out: np.ndarray,
                      grads: DenseNet | None = None, input_grad: bool = False,
                      work=None):
    """Chain rule down through a segment; returns (dWs, dbs, d_input).

    The gradients are written into the arrays of ``grads`` when it is given,
    else into new ones. d_input is the gradient at the segment's input when
    ``input_grad`` is set, else None. ``work``, when given, holds a pair of
    arrays per layer, shaped as its output and as its input, which take
    its dz and its input gradient; None where the pass forms neither."""
    dws = list(grads.weights) if grads is not None else [None] * net.num_layers
    dbs = list(grads.biases) if grads is not None else [None] * net.num_layers
    da = d_out
    for j in range(net.num_layers - 1, -1, -1):
        a_in, a = caches[j]
        derivative = ACTIVATIONS[net.activations[j]][1]
        dz, d_in = (None, None) if work is None else work[j]
        dz = da if derivative is None else np.multiply(da, derivative(a, dz), out=dz)
        dws[j] = np.matmul(a_in.swapaxes(-1, -2), dz, out=dws[j])
        dbs[j] = np.add.reduce(dz, axis=-2, out=dbs[j])
        da = (np.matmul(dz, net.weights[j].swapaxes(-1, -2), out=d_in)
              if j or input_grad else None)
    return dws, dbs, da


def _softmax(out: np.ndarray, probs: np.ndarray | None = None) -> np.ndarray:
    """The softmax over the last axis of ``out``, written into ``probs``
    when it is given, else into a new array.

    Numpy reduces a short last axis one row at a time, at 20 to 55 ns a
    row, and broadcasts a row's max or sum back in as many short loops;
    below 8 classes, the softmax runs in a class-major copy, whose leading
    axis it reduces and broadcasts over in a few whole-array passes. The
    bits are the same: each element's arithmetic is unchanged, a max is
    exact in any order, and numpy adds a row of fewer than 8 values in
    order, as the leading-axis reduction does. From 8 values on, numpy adds
    a row in pairwise blocks, so wider axes keep the row reductions."""
    if out.shape[-1] >= 8:
        shifted = np.subtract(out, np.maximum.reduce(out, axis=-1, keepdims=True),
                              out=probs)
        expz = np.exp(shifted, out=shifted)
        return np.divide(expz, np.add.reduce(expz, axis=-1, keepdims=True), out=expz)
    classes = out.T.copy()
    np.subtract(classes, np.maximum.reduce(classes, axis=0), out=classes)
    np.exp(classes, out=classes)
    np.divide(classes, np.add.reduce(classes, axis=0), out=classes)
    if probs is None:
        return classes.T.copy()
    np.copyto(probs, classes.T)
    return probs


def _loss_terms(out: np.ndarray, y: np.ndarray, loss: str, work=None):
    """Loss value per group member, and the two output-shaped arrays it was
    computed in: out - y and its squares for mse, the softmax probabilities
    and the log-likelihood terms for softmax cross-entropy.

    Every array is new unless ``work`` holds such a pair, a former call's on
    arrays of the same shapes: then each step writes over its array."""
    first, second = (None, None) if work is None else work
    batch = out.shape[-2]
    if loss == "mse":
        diff = np.subtract(out, y, out=first)
        squares = np.multiply(diff, diff, out=second)
        return np.add.reduce(squares, axis=(-2, -1)) / batch, (diff, squares)
    # softmax cross-entropy over logits, y one-hot
    probs = _softmax(out, first)
    logs = np.log(np.maximum(probs, 1e-300, out=second), out=second)
    terms = np.multiply(y, logs, out=second)
    return -np.add.reduce(terms, axis=(-2, -1)) / batch, (probs, terms)


def _loss_and_grad(out: np.ndarray, y: np.ndarray, loss: str, work=None):
    """Loss value per group member and its gradient w.r.t. the output, which
    is written over the first array of the loss terms (see _loss_terms,
    which takes ``work``)."""
    value, (first, _) = _loss_terms(out, y, loss, work)
    batch = out.shape[-2]
    if loss == "mse":   # first is out - y
        return value, np.divide(np.multiply(2.0, first, out=first), batch, out=first)
    # first holds the probabilities
    return value, np.divide(np.subtract(first, y, out=first), batch, out=first)


def _check_finite(value) -> None:
    if not np.isfinite(value).all():
        raise FloatingPointError("non-finite loss")


def _gradients(net: DenseNet, x: np.ndarray, y: np.ndarray,
               grads: DenseNet | None = None, work=None):
    """The loss per group member and the full-network gradients, written
    into ``grads`` when it is given, computed in the arrays of ``work``
    (see :func:`_step_work`) or else new ones; the caller checks the batch."""
    layers, terms, back = (None, None, None) if work is None else work
    out, caches = _forward_segment(net, x, layers)
    value, d_out = _loss_and_grad(out, y, net.loss, terms)
    _check_finite(value)
    dws, dbs, _ = _backward_segment(net, caches, d_out, grads, work=back)
    return value, dws, dbs


def _step_work(net: DenseNet, x: np.ndarray):
    """Arrays for :func:`_gradients` on ``net`` and batches shaped as ``x``:
    per layer its output, its dz but for identity and its input gradient but
    for the first; and the loss's two, the first taking the loss gradient."""
    lead = x.shape[:-1]
    layers = [np.empty(lead + w.shape[-1:]) for w in net.weights]
    back = [(None if act == "identity" else np.empty_like(a),
             np.empty(lead + w.shape[-2:-1]) if j else None)
            for j, (w, a, act) in enumerate(zip(net.weights, layers, net.activations))]
    return layers, (np.empty_like(layers[-1]), np.empty_like(layers[-1])), back


def _step(net: DenseNet, dws, dbs, rho: float) -> DenseNet:
    return DenseNet(
        tuple(w - rho * dw for w, dw in zip(net.weights, dws)),
        tuple(b - rho * db for b, db in zip(net.biases, dbs)),
        net.activations,
        net.loss,
    )


def _check_batch(x: np.ndarray, y: np.ndarray, first: DenseNet, last: DenseNet,
                 who: str = "batch") -> None:
    """Refuses a batch whose features do not fit the input layer, held by
    ``first``, whose labels are not one row of the output layer's width,
    held by ``last``, per sample, that holds no samples, or a loss the
    output layer cannot feed. ``who`` names the batch's owner in the
    message."""
    if x.shape[-1] != first.weights[0].shape[-2]:
        raise ValueError(f"{who} feature dimension {x.shape[-1]} does not match "
                         f"the input layer's {first.weights[0].shape[-2]}")
    width = last.weights[-1].shape[-1]
    if y.shape != x.shape[:-1] + (width,):
        raise ValueError(f"{who} labels of shape {y.shape} do not match samples "
                         f"of shape {x.shape} and an output layer of width {width}")
    # the loss and its gradient divide by the sample count, the length of axis -2
    if x.ndim < 2 or not x.shape[-2]:
        raise ValueError(f"{who} holds no samples: features of shape {x.shape}, "
                         f"not a row per sample")
    # softmax cross-entropy consumes logits, so the producing layer must
    # not squash them
    if last.loss == "softmax_ce" and last.activations[-1] != "identity":
        raise ValueError("softmax_ce expects identity on the output layer")


def _loss(net: DenseNet, x: np.ndarray, y: np.ndarray, work=None):
    """The loss per group member, and the arrays it was evaluated in: one
    per layer (its output) and the loss's two. A later call on arrays of
    the same shapes and dtypes takes them as ``work`` and evaluates in them,
    allocating none of them anew. The batch is the caller's to check."""
    layers, terms = (None, None) if work is None else work
    out, caches = _forward_segment(net, x, layers)
    value, terms = _loss_terms(out, y, net.loss, terms)
    return value, ([a for _, a in caches], terms)


def loss_value(net: DenseNet, x: np.ndarray, y: np.ndarray) -> float:
    _check_batch(x, y, net, net)
    return float(_loss(net, x, y)[0])


def loss_and_grads(net: DenseNet, x: np.ndarray, y: np.ndarray):
    """Full-network analytic gradients; used directly by gradient checks."""
    _check_batch(x, y, net, net)
    return _gradients(net, x, y)


def monolithic_update(net: DenseNet, batch, rho: float) -> DenseNet:
    """One plain SGD step on the whole network."""
    x, y = batch
    _, dws, dbs = loss_and_grads(net, x, y)
    return _step(net, dws, dbs, rho)


# ---------------------------------------------------------------------------
# Split execution

def _check_cut(num_layers: int, cut: int) -> None:
    check("cut", cut, between(1, num_layers - 1))


def split_net(net: DenseNet, cut: int, learning_rate: float) -> SplitState:
    """Split after layer ``cut`` (1-based); both sides must be nonempty."""
    _check_cut(net.num_layers, cut)
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


def _split_pass(state: SplitState, x: np.ndarray, y: np.ndarray):
    """The gradients of one split step: device forward, server forward,
    loss, server backward, which forms the gradient at the cut, and device
    backward. Returns ((device dWs, dbs), (server dWs, dbs))."""
    act_cut, user_caches = _forward_segment(state.user_side, x)
    out, server_caches = _forward_segment(state.server_side, act_cut)
    value, d_out = _loss_and_grad(out, y, state.server_side.loss)
    _check_finite(value)
    s_dws, s_dbs, d_act = _backward_segment(state.server_side, server_caches, d_out,
                                            input_grad=True)
    # d_act is the loss gradient at the cut activation, returned to the device
    u_dws, u_dbs, _ = _backward_segment(state.user_side, user_caches, d_act)
    return (u_dws, u_dbs), (s_dws, s_dbs)


def split_update(state: SplitState, batch) -> SplitState:
    """One split SGD step: device forward, server forward/backward/step,
    activation gradient back to the device, device backward/step.

    With stacked sides and a stacked batch, every member steps at once."""
    x, y = batch
    _check_batch(x, y, state.user_side, state.server_side)
    rho = state.learning_rate
    (u_dws, u_dbs), (s_dws, s_dbs) = _split_pass(state, x, y)
    return SplitState(_step(state.user_side, u_dws, u_dbs, rho),
                      _step(state.server_side, s_dws, s_dbs, rho), state.cut, rho)


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
    share = np.asarray(counts, dtype=float)
    total = float(sum(counts))
    # 0 < n < inf is false for a NaN; a sum past the float range zeroes every share
    if not (np.all((0 < share) & (share < np.inf)) and total < np.inf):
        raise ValueError("sample counts must be positive and finite, as must their sum")
    lead = (len(counts),)
    if members.activations != global_net.activations or any(
        m.shape != lead + g.shape
        for m, g in zip(members.weights + members.biases,
                        global_net.weights + global_net.biases)
    ):
        raise ValueError("local model structure does not match the global model")
    share = share / total

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
    """A client in the toy trainer: its data, cut choice, and epoch count,
    which :func:`esfl_train` checks (see :func:`check_training`): ``x``
    holds a row of features per sample and ``y`` a row of labels, one per
    output of the network."""

    x: np.ndarray
    y: np.ndarray
    cut: int
    epochs: int = 1


def _batches(net: DenseNet, x, y, batch_size):
    """Minibatches along the sample axis, the second to last, as (x, y,
    work): ``work`` holds the arrays of :func:`_step_work` for ``net``, one
    set for the full minibatches and one for a ragged last one."""
    n = x.shape[-2]
    step = min(batch_size or n, n)
    full = _step_work(net, x[..., :step, :])
    ragged = _step_work(net, x[..., n - n % step:, :]) if n % step else full
    return [(x[..., s:s + step, :], y[..., s:s + step, :],
             full if s + step <= n else ragged) for s in range(0, n, step)]


def _stack_groups(users: Sequence[ToyUser]) -> list[list[int]]:
    """Indices of the users that train as one stack, in first-appearance
    order: those with the same epoch count and data shapes. The cut is not
    part of the key: it moves layers between the device and the server but
    leaves every member's arithmetic that of the whole network."""
    groups: dict[tuple, list[int]] = {}
    for i, u in enumerate(users):
        groups.setdefault((u.epochs, u.x.shape, u.y.shape), []).append(i)
    return list(groups.values())


def _flat_views(flat: np.ndarray, net: DenseNet) -> DenseNet:
    """A network shaped like ``net`` whose arrays are views into ``flat``.

    The last axis of ``flat`` holds one member's parameters, layer by layer:
    w0, b0, w1, b1, ...; leading axes index the members."""
    lead = flat.shape[:-1]
    weights, biases, start = [], [], 0
    for w, b in zip(net.weights, net.biases):
        for views, a in ((weights, w), (biases, b)):
            views.append(flat[..., start:start + a.size].reshape(lead + a.shape))
            start += a.size
    return DenseNet(tuple(weights), tuple(biases), net.activations, net.loss)


def check_training(num_layers: int, cuts: Sequence[int], epochs: Sequence[int],
                   rounds: int, eta: float = 0.5, rho0: float = 0.01,
                   batch_size: int | None = None) -> None:
    """Refuse the arguments of :func:`esfl_train` that lie outside their
    bounds, before any data is drawn: ``cuts`` and ``epochs`` hold each
    user's cut and epoch count, for a network of ``num_layers`` layers.

    ``rounds`` and every epoch count must be integers >= 1, ``rho0`` finite
    and positive, ``eta`` in (0, 1], ``batch_size`` None (full batch) or an
    integer >= 1 and every cut in 1..L-1, so that every round trains; a bad
    value raises a ``ConfigError`` naming its parameter, and no users a
    ``ValueError``.
    """
    check("rho0", rho0, FINITE, POSITIVE)
    check("eta", eta, NUMBER, (lambda v: not 0 < v <= 1, "lie in (0, 1]"))
    check("rounds", rounds, COUNT)
    if batch_size is not None:
        check("batch_size", batch_size, COUNT)
    if not len(cuts):
        raise ValueError("users must hold at least one user")
    check("epochs", epochs, COUNT, each=True)
    for cut in cuts:
        _check_cut(num_layers, cut)


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
    folded into the global one, in user order. The step size decays as
    ``rho0 / (1 + r/100)`` with the 0-based round index r. The arguments
    are checked first, by :func:`check_training`, and then every user's
    data against the network, by the rule :func:`split_update` applies to
    a batch. Returns the final network and the loss trace: the global
    training loss of ``net`` before round 0, then after each round, so
    ``rounds + 1`` values.

    A user's cut decides which party computes each layer, not what is
    computed: the device's layers followed by the server's are the
    network's layers in order, and both forms take an input gradient at
    every layer but the first. So users that share an epoch count and data
    shapes train as one stack, whatever their cuts, with one full-network
    gradient pass per minibatch; every cut is still checked against the
    network before training. The per-cut split update is the reference this
    must match bit for bit.

    The local models live in one flat buffer, a row per user, each stack's
    rows together; each stack's network is a view into its rows, built
    once, and each minibatch steps it in place with one subtraction, in
    arrays built once per minibatch length. The global network, returned
    as views, is one flat vector of that layout: each round copies it into
    every row and folds the rows back in user order with
    :func:`federated_aggregate`'s arithmetic, bit for bit. One stack of
    every user views the pooled data, the run's only copy. Each global
    loss is :func:`loss_value`'s, evaluated in the arrays of the first
    evaluation, which live until the run ends.
    The caller's ``net`` and the users' arrays are only read.
    """
    check_training(net.num_layers, [u.cut for u in users], [u.epochs for u in users],
                   rounds, eta, rho0, batch_size)
    for i, u in enumerate(users):
        _check_batch(u.x, u.y, net, net, f"users[{i}]")
    pooled_x = np.concatenate([u.x for u in users])
    pooled_y = np.concatenate([u.y for u in users])
    counts = [float(len(u.x)) for u in users]
    share = np.asarray(counts) / float(sum(counts))
    stacks = _stack_groups(users)
    # stacked position -> user order, for the stack rows laid end to end
    order = np.argsort([i for members in stacks for i in members])
    arrays = [a.ravel() for layer in zip(net.weights, net.biases) for a in layer]
    glob = np.concatenate(arrays, dtype=float)
    gnet = _flat_views(glob, net)
    # numpy sums a one-value array's members pairwise from 8 on, a wider
    # array's one by one, as the flat sum does
    starts = np.cumsum([0] + [a.size for a in arrays])
    ones = [s for s, end in zip(starts, starts[1:]) if end - s == 1]
    local = np.empty((len(users), glob.size))
    groups, start = [], 0
    for members in stacks:
        params = local[start:start + len(members)]
        grads = np.empty_like(params)
        stack = _flat_views(params, net)
        # one stack of every user, in user order, trains on the pooled data
        x, y = ((pooled_x.reshape((len(users),) + users[0].x.shape),
                 pooled_y.reshape((len(users),) + users[0].y.shape)) if len(stacks) == 1
                else (np.stack([users[i].x for i in members]),
                      np.stack([users[i].y for i in members])))
        groups.append((params, grads, stack, _flat_views(grads, net),
                       users[members[0]].epochs, _batches(stack, x, y, batch_size)))
        start += len(members)
    value, work = _loss(gnet, pooled_x, pooled_y)
    trace = [float(value)]
    for r in range(rounds):
        rho = rho0 / (1.0 + r / 100.0)
        local[...] = glob
        for params, grads, stack, grad_stack, epochs, batches in groups:
            for _ in range(epochs):
                for xb, yb, step_work in batches:
                    _gradients(stack, xb, yb, grad_stack, step_work)
                    params -= np.multiply(rho, grads, out=grads)
        # federated_aggregate's arithmetic, on the flat rows in user order
        weighted = local[order]
        weighted *= share[:, None]
        mean = weighted.sum(axis=0)
        for k in ones:
            mean[k] = weighted[:, k].sum()
        glob -= np.multiply(eta, np.subtract(glob, mean, out=mean), out=mean)
        value, work = _loss(gnet, pooled_x, pooled_y, work)
        trace.append(float(value))
    return gnet, trace


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
