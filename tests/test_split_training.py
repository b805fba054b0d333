import re

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from esfl import (
    DenseNet,
    SplitState,
    ToyUser,
    concatenate,
    esfl_train,
    federated_aggregate,
    init_dense_net,
    loss_and_grads,
    loss_value,
    make_blobs,
    monolithic_update,
    split_net,
    split_update,
)
from esfl import split_training
from esfl.split_training import ACTIVATIONS, LOSSES, _loss_terms


def _max_rel_dev(a: DenseNet, b: DenseNet) -> float:
    worst = 0.0
    for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
        denom = np.maximum(np.maximum(np.abs(wa), np.abs(wb)), 1e-300)
        diff = np.abs(wa - wb)
        if diff.size:
            worst = max(worst, float(np.max(np.where(diff > 0, diff / denom, 0.0))))
    return worst


def _random_case(rng, max_depth=4):
    depth = int(rng.integers(2, max_depth + 1))
    sizes = [int(rng.integers(2, 6)) for _ in range(depth + 1)]
    loss = "mse" if rng.random() < 0.5 else "softmax_ce"
    net = init_dense_net(sizes, loss=loss, rng=rng)
    batch = int(rng.integers(1, 9))
    x = rng.normal(size=(batch, sizes[0]))
    if loss == "mse":
        y = rng.normal(size=(batch, sizes[-1]))
    else:
        labels = rng.integers(sizes[-1], size=batch)
        y = np.zeros((batch, sizes[-1]))
        y[np.arange(batch), labels] = 1.0
    return net, x, y


def _stack(nets):
    """The networks ``nets`` as one network with a leading member axis."""
    def stack(layers):
        return tuple(np.stack(arrays) for arrays in zip(*layers))
    return DenseNet(stack(n.weights for n in nets), stack(n.biases for n in nets),
                    nets[0].activations, nets[0].loss)


def _list_aggregate(global_net, local_nets, eta):
    """The plain reference for federated_aggregate: one (net, count) pair per
    local model, folded into the weighted mean in order."""
    total = float(sum(n for _, n in local_nets))
    mean_w = [sum((n / total) * net.weights[j] for net, n in local_nets)
              for j in range(global_net.num_layers)]
    mean_b = [sum((n / total) * net.biases[j] for net, n in local_nets)
              for j in range(global_net.num_layers)]
    return DenseNet(
        tuple(w - eta * (w - m) for w, m in zip(global_net.weights, mean_w)),
        tuple(b - eta * (b - m) for b, m in zip(global_net.biases, mean_b)),
        global_net.activations, global_net.loss,
    )


class TestSplitUpdate:
    def test_zero_learning_rate_is_identity(self):
        rng = np.random.default_rng(0)
        net, x, y = _random_case(rng)
        state = split_update(split_net(net, 1, 0.0), (x, y))
        assert _max_rel_dev(concatenate(state), net) == 0.0

    def test_boundary_cuts_reconstruct(self):
        rng = np.random.default_rng(1)
        net = init_dense_net([3, 4, 5, 2], rng=rng)
        for cut in (1, net.num_layers - 1):
            state = split_net(net, cut, 0.1)
            rebuilt = concatenate(state)
            assert rebuilt.activations == net.activations
            assert _max_rel_dev(rebuilt, net) == 0.0

    def test_invalid_cut_rejected(self):
        net = init_dense_net([3, 4, 2], rng=np.random.default_rng(2))
        with pytest.raises(ValueError):
            split_net(net, 0, 0.1)
        with pytest.raises(ValueError):
            split_net(net, net.num_layers, 0.1)

    def test_three_layer_cut_one_matches_monolithic(self):
        rng = np.random.default_rng(3)
        net = init_dense_net([3, 5, 4, 2], loss="mse", rng=rng)
        x = rng.normal(size=(6, 3))
        y = rng.normal(size=(6, 2))
        mono = monolithic_update(net, (x, y), 0.05)
        split = concatenate(split_update(split_net(net, 1, 0.05), (x, y)))
        assert _max_rel_dev(mono, split) <= 1e-9

    def test_batch_dimension_mismatch(self):
        net = init_dense_net([3, 4, 2], rng=np.random.default_rng(4))
        with pytest.raises(ValueError):
            split_update(split_net(net, 1, 0.1),
                         (np.zeros((2, 5)), np.zeros((2, 2))))

    def test_non_finite_loss_raises(self):
        net = init_dense_net([2, 3, 1], loss="mse",
                             activations=["identity", "identity"],
                             rng=np.random.default_rng(5))
        x = np.array([[np.inf, 1.0]])
        y = np.array([[0.0]])
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
            split_update(split_net(net, 1, 0.1), (x, y))


@st.composite
def _split_cases(draw):
    """A random net shape, activations, loss, cut, batch size and step size.

    softmax_ce reads logits, so its head is the identity.
    """
    sizes = draw(st.lists(st.integers(1, 6), min_size=3, max_size=5))
    depth = len(sizes) - 1
    loss = draw(st.sampled_from(LOSSES))
    names = st.sampled_from(sorted(ACTIVATIONS))
    hidden = draw(st.lists(names, min_size=depth - 1, max_size=depth - 1))
    head = "identity" if loss == "softmax_ce" else draw(names)
    return {
        "sizes": sizes, "activations": hidden + [head], "loss": loss,
        "cut": draw(st.integers(1, depth - 1)), "batch": draw(st.integers(1, 8)),
        "rho": draw(st.floats(1e-3, 0.5)), "seed": draw(st.integers(0, 2**32 - 1)),
    }


class TestSplitEquivalenceProperty:
    @seed(20247)
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_split_cases())
    def test_split_step_matches_monolithic(self, case):
        rng = np.random.default_rng(case["seed"])
        sizes, batch = case["sizes"], case["batch"]
        net = init_dense_net(sizes, case["activations"], case["loss"], rng)
        x = rng.normal(size=(batch, sizes[0]))
        if case["loss"] == "mse":
            y = rng.normal(size=(batch, sizes[-1]))
        else:
            y = np.eye(sizes[-1])[rng.integers(sizes[-1], size=batch)]
        mono = monolithic_update(net, (x, y), case["rho"])
        split = split_update(split_net(net, case["cut"], case["rho"]), (x, y))
        assert _max_rel_dev(mono, concatenate(split)) <= 1e-9


# The backward pass as first written: every derivative recomputed from the
# preactivation, identity layers multiplied by ones, every input gradient
# formed, and the softmax-CE floor taken by np.clip. The library must match
# it bit for bit.
_REF_ACTIVATIONS = {
    "identity": (lambda z: z, lambda z: np.ones_like(z)),
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0).astype(z.dtype)),
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
}


def _ref_forward(net, x):
    caches = []
    a = x
    for w, b, act in zip(net.weights, net.biases, net.activations):
        z = a @ w + b[..., None, :]
        caches.append((a, z))
        a = _REF_ACTIVATIONS[act][0](z)
    return a, caches


def _ref_backward(net, caches, d_out):
    dws = [None] * net.num_layers
    dbs = [None] * net.num_layers
    da = d_out
    for j in range(net.num_layers - 1, -1, -1):
        a_in, z = caches[j]
        dz = da * _REF_ACTIVATIONS[net.activations[j]][1](z)
        dws[j] = a_in.swapaxes(-1, -2) @ dz
        dbs[j] = dz.sum(axis=-2)
        da = dz @ net.weights[j].swapaxes(-1, -2)
    return dws, dbs, da


def _ref_loss_and_grad(out, y, loss):
    batch = out.shape[-2]
    if loss == "mse":
        diff = out - y
        return np.sum(diff * diff, axis=(-2, -1)) / batch, 2.0 * diff / batch
    shifted = out - out.max(axis=-1, keepdims=True)
    expz = np.exp(shifted)
    probs = expz / expz.sum(axis=-1, keepdims=True)
    value = -np.sum(y * np.log(np.clip(probs, 1e-300, None)), axis=(-2, -1)) / batch
    return value, (probs - y) / batch


def _ref_loss_and_grads(net, x, y):
    out, caches = _ref_forward(net, x)
    value, d_out = _ref_loss_and_grad(out, y, net.loss)
    dws, dbs, _ = _ref_backward(net, caches, d_out)
    return value, dws, dbs


def _ref_step(net, dws, dbs, rho):
    return DenseNet(tuple(w - rho * dw for w, dw in zip(net.weights, dws)),
                    tuple(b - rho * db for b, db in zip(net.biases, dbs)),
                    net.activations, net.loss)


def _ref_split_update(state, x, y):
    rho = state.learning_rate
    act_cut, user_caches = _ref_forward(state.user_side, x)
    out, server_caches = _ref_forward(state.server_side, act_cut)
    _, d_out = _ref_loss_and_grad(out, y, state.server_side.loss)
    s_dws, s_dbs, d_act = _ref_backward(state.server_side, server_caches, d_out)
    u_dws, u_dbs, _ = _ref_backward(state.user_side, user_caches, d_act)
    return (_ref_step(state.user_side, u_dws, u_dbs, rho),
            _ref_step(state.server_side, s_dws, s_dbs, rho))


def _bit_equal(a: DenseNet, b: DenseNet) -> bool:
    return all(np.array_equal(p, q)
               for p, q in zip(a.weights + a.biases, b.weights + b.biases))


@st.composite
def _exact_cases(draw):
    """A split case, the number of stacked members (None: one plain net) and
    the members' sample counts and damping for one aggregation."""
    case = draw(_split_cases())
    members = draw(st.none() | st.integers(1, 3))
    case["members"] = members
    case["counts"] = draw(st.lists(st.integers(1, 50), min_size=members or 1,
                                   max_size=members or 1))
    case["eta"] = draw(st.floats(0.0, 1.0))
    return case


class TestExactBackprop:
    """Backprop from the forward caches, with input gradients only where read,
    gives every loss and parameter bit for bit as the reference above, and
    the stacked aggregation matches the list loop."""

    @seed(20249)
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(_exact_cases())
    def test_matches_the_reference_bit_for_bit(self, case):
        rng = np.random.default_rng(case["seed"])
        sizes, batch, rho = case["sizes"], case["batch"], case["rho"]
        lead = () if case["members"] is None else (case["members"],)
        nets = [init_dense_net(sizes, case["activations"], case["loss"], rng)
                for _ in range(case["members"] or 1)]
        net = nets[0] if case["members"] is None else _stack(nets)
        x = rng.normal(size=lead + (batch, sizes[0]))
        if case["loss"] == "mse":
            y = rng.normal(size=lead + (batch, sizes[-1]))
        else:
            y = np.eye(sizes[-1])[rng.integers(sizes[-1], size=lead + (batch,))]

        value, dws, dbs = loss_and_grads(net, x, y)
        ref_value, ref_dws, ref_dbs = _ref_loss_and_grads(net, x, y)
        assert np.array_equal(value, ref_value)
        assert all(np.array_equal(g, r) for g, r in zip(dws + dbs, ref_dws + ref_dbs))
        x0, y0 = (x[0], y[0]) if lead else (x, y)
        ref_loss = _ref_loss_and_grads(nets[0], x0, y0)[0]
        assert loss_value(nets[0], x0, y0) == float(ref_loss)

        assert _bit_equal(monolithic_update(net, (x, y), rho),
                          _ref_step(net, ref_dws, ref_dbs, rho))
        for cut in range(1, net.num_layers):
            state = split_net(net, cut, rho)
            user, server = _ref_split_update(state, x, y)
            stepped = split_update(state, (x, y))
            assert _bit_equal(stepped.user_side, user)
            assert _bit_equal(stepped.server_side, server)

        global_net = init_dense_net(sizes, case["activations"], case["loss"], rng)
        counts = [float(n) for n in case["counts"]]
        out = federated_aggregate(global_net, _stack(nets), counts, case["eta"])
        ref = _list_aggregate(global_net, list(zip(nets, counts)), case["eta"])
        assert _max_rel_dev(out, ref) <= 1e-12


class TestMonolithicUpdate:
    def test_zero_learning_rate_identity(self):
        rng = np.random.default_rng(6)
        net, x, y = _random_case(rng)
        assert _max_rel_dev(monolithic_update(net, (x, y), 0.0), net) == 0.0

    def test_one_layer_linear_closed_form(self):
        # squared loss, one sample: dL/dw = 2 (w x - y) x
        net = DenseNet((np.array([[0.7]]),), (np.array([0.4]),),
                       ("identity",), "mse")
        x = np.array([[2.0]])
        y = np.array([[1.0]])
        updated = monolithic_update(net, (x, y), 0.1)
        resid = 0.7 * 2.0 + 0.4 - 1.0
        assert updated.weights[0][0, 0] == pytest.approx(
            0.7 - 0.1 * 2 * resid * 2.0, rel=1e-12
        )
        assert updated.biases[0][0] == pytest.approx(
            0.4 - 0.1 * 2 * resid, rel=1e-12
        )

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        net = init_dense_net([2, 3, 1], loss="mse", rng=rng)  # 13 parameters
        x = rng.normal(size=(5, 2))
        y = rng.normal(size=(5, 1))
        _, dws, dbs = loss_and_grads(net, x, y)
        analytic = np.concatenate([g.ravel() for g in dws + dbs])

        params = [w.copy() for w in net.weights] + [b.copy() for b in net.biases]
        fd = np.zeros_like(analytic)
        h = 1e-6
        pos = 0
        for pi in range(len(params)):
            for j in range(params[pi].size):
                vals = []
                for sign in (+1, -1):
                    trial = [p.copy() for p in params]
                    trial[pi].ravel()[j] += sign * h
                    nn = DenseNet(tuple(trial[: net.num_layers]),
                                  tuple(trial[net.num_layers:]),
                                  net.activations, net.loss)
                    vals.append(loss_value(nn, x, y))
                fd[pos] = (vals[0] - vals[1]) / (2 * h)
                pos += 1
        scale = max(float(np.abs(analytic).max()), 1e-12)
        assert float(np.abs(analytic - fd).max()) / scale <= 1e-5


class TestFederatedAggregate:
    def _nets(self, seed=8):
        rng = np.random.default_rng(seed)
        g = init_dense_net([2, 3, 2], rng=rng)
        l1 = init_dense_net([2, 3, 2], rng=rng)
        l2 = init_dense_net([2, 3, 2], rng=rng)
        return g, l1, l2

    def test_full_step_is_weighted_mean(self):
        g, l1, l2 = self._nets()
        out = federated_aggregate(g, _stack([l1, l2]), [1.0, 3.0], eta=1.0)
        for j in range(g.num_layers):
            expected = 0.25 * l1.weights[j] + 0.75 * l2.weights[j]
            assert np.allclose(out.weights[j], expected, rtol=1e-12, atol=0)

    def test_zero_step_keeps_global(self):
        g, l1, l2 = self._nets()
        out = federated_aggregate(g, _stack([l1, l2]), [1.0, 1.0], eta=0.0)
        assert _max_rel_dev(out, g) == 0.0

    def test_half_step_single_local_is_midpoint(self):
        g, l1, _ = self._nets()
        out = federated_aggregate(g, _stack([l1]), [5.0], eta=0.5)
        for j in range(g.num_layers):
            midpoint = 0.5 * (g.weights[j] + l1.weights[j])
            assert np.allclose(out.weights[j], midpoint, rtol=1e-12, atol=0)

    def test_structural_mismatch_rejected(self):
        g, _, _ = self._nets()
        other = init_dense_net([2, 4, 2], rng=np.random.default_rng(9))
        with pytest.raises(ValueError, match="structure"):
            federated_aggregate(g, _stack([other]), [1.0], eta=1.0)

    def test_counts_must_name_each_member_and_be_positive(self):
        g, l1, l2 = self._nets()
        with pytest.raises(ValueError, match="structure"):
            federated_aggregate(g, _stack([l1, l2]), [1.0], eta=1.0)
        with pytest.raises(ValueError, match="at least one"):
            federated_aggregate(g, _stack([l1]), [], eta=1.0)
        with pytest.raises(ValueError, match="positive"):
            federated_aggregate(g, _stack([l1, l2]), [1.0, -1.0], eta=1.0)

    @pytest.mark.parametrize("counts", [[2.0, -1.0], [0.0, 1.0], [np.nan, 1.0],
                                        [np.inf, 1.0], [1.0, -np.inf], [1e308, 1e308]])
    def test_each_count_must_be_finite_and_positive(self, counts):
        # a positive sum is not enough: a negative count weighs its model
        # negatively, a NaN count turns the model into NaN, an infinite one
        # divides inf by inf, and counts that sum past the largest float
        # round every share to 0
        g, l1, l2 = self._nets()
        with pytest.raises(ValueError, match="sample counts must be positive"):
            federated_aggregate(g, _stack([l1, l2]), counts, eta=1.0)

    def test_affine_in_each_local_model(self):
        g, l1, l2 = self._nets()
        alpha, eta = 0.3, 0.7
        blended = DenseNet(
            tuple(alpha * a + (1 - alpha) * b
                  for a, b in zip(l1.weights, l2.weights)),
            tuple(alpha * a + (1 - alpha) * b
                  for a, b in zip(l1.biases, l2.biases)),
            g.activations, g.loss,
        )
        via_blend = federated_aggregate(g, _stack([blended]), [2.0], eta=eta)
        out1 = federated_aggregate(g, _stack([l1]), [2.0], eta=eta)
        out2 = federated_aggregate(g, _stack([l2]), [2.0], eta=eta)
        for j in range(g.num_layers):
            expected = alpha * out1.weights[j] + (1 - alpha) * out2.weights[j]
            assert np.allclose(via_blend.weights[j], expected, rtol=1e-12, atol=1e-15)


class TestEsflTrain:
    def test_single_user_full_step_tracks_monolithic(self):
        rng = np.random.default_rng(10)
        net = init_dense_net([2, 4, 2], loss="softmax_ce",
                             activations=["tanh", "identity"], rng=rng)
        x, y = make_blobs(32, rng=rng)
        user = ToyUser(x=x, y=y, cut=1, epochs=1)
        trained, _ = esfl_train(net, [user], rounds=8, eta=1.0, rho0=0.05)

        reference = net
        for r in range(8):
            rho = 0.05 / (1.0 + r / 100.0)
            reference = monolithic_update(reference, (x, y), rho)
        assert _max_rel_dev(trained, reference) <= 1e-9

    def test_identical_users_aggregate_to_single_local(self):
        rng = np.random.default_rng(11)
        net = init_dense_net([2, 4, 2], loss="mse", rng=rng)
        x = rng.normal(size=(16, 2))
        y = rng.normal(size=(16, 2))
        users = [ToyUser(x=x, y=y, cut=1, epochs=2) for _ in range(3)]
        trained, _ = esfl_train(net, users, rounds=3, eta=1.0, rho0=0.02)

        state = None
        single = net
        for r in range(3):
            rho = 0.02 / (1.0 + r / 100.0)
            state = split_net(single, 1, rho)
            for _ in range(2):
                state = split_update(state, (x, y))
            single = concatenate(state)
        assert _max_rel_dev(trained, single) <= 1e-9

    def test_loss_decreases_on_blob_task(self):
        rng = np.random.default_rng(12)
        net = init_dense_net([2, 16, 16, 2],
                             activations=["tanh", "tanh", "identity"],
                             loss="softmax_ce", rng=rng)
        users = []
        for i in range(2):
            x, y = make_blobs(64, rng=rng)
            users.append(ToyUser(x=x, y=y, cut=1 + i, epochs=1))
        _, trace = esfl_train(net, users, rounds=50)
        assert trace[-1] < trace[0]

    def test_cut_choice_never_changes_the_mathematics(self):
        rng = np.random.default_rng(13)
        net = init_dense_net([2, 8, 8, 8, 2],
                             activations=["tanh", "tanh", "tanh", "identity"],
                             loss="softmax_ce", rng=rng)
        data = [make_blobs(32, rng=rng) for _ in range(3)]
        finals = []
        for cuts in ((1, 1, 1), (2, 3, 1), (3, 2, 2)):
            users = [ToyUser(x=x, y=y, cut=c, epochs=2)
                     for (x, y), c in zip(data, cuts)]
            final, _ = esfl_train(net, users, rounds=5, eta=0.5, rho0=0.03)
            finals.append(final)
        assert _max_rel_dev(finals[0], finals[1]) <= 1e-9
        assert _max_rel_dev(finals[0], finals[2]) <= 1e-9


    def test_step_sizes_that_train_nothing_rejected(self):
        rng = np.random.default_rng(20)
        net = init_dense_net([2, 3, 2], loss="mse", rng=rng)
        x, y = make_blobs(8, rng=rng)
        users = [ToyUser(x=x, y=y, cut=1)]
        for rho0 in (0.0, -0.5, float("nan")):
            with pytest.raises(ValueError, match="rho0"):
                esfl_train(net, users, rounds=1, rho0=rho0)
        for eta in (0.0, -0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="eta"):
                esfl_train(net, users, rounds=1, eta=eta)

    def test_non_positive_epochs_rejected(self):
        rng = np.random.default_rng(17)
        net = init_dense_net([2, 3, 2], loss="mse", rng=rng)
        x, y = make_blobs(8, rng=rng)
        for epochs in (0, -1):
            with pytest.raises(ValueError, match="epochs"):
                esfl_train(net, [ToyUser(x=x, y=y, cut=1, epochs=epochs)], rounds=1)

    def test_batch_size_below_one_rejected(self):
        # a negative size would yield no minibatch and train nothing
        rng = np.random.default_rng(21)
        net = init_dense_net([2, 3, 2], loss="mse", rng=rng)
        x, y = make_blobs(8, rng=rng)
        users = [ToyUser(x=x, y=y, cut=1)]
        for batch_size in (0, -2, float("nan")):
            with pytest.raises(ValueError, match="batch_size"):
                esfl_train(net, users, rounds=1, batch_size=batch_size)

    def test_fractional_epochs_rejected(self):
        rng = np.random.default_rng(18)
        net = init_dense_net([2, 3, 2], loss="mse", rng=rng)
        x, y = make_blobs(8, rng=rng)
        for epochs in (1.5, 2.0, True):
            with pytest.raises(ValueError, match="epochs must be an integer >= 1"):
                esfl_train(net, [ToyUser(x=x, y=y, cut=1, epochs=epochs)], rounds=1)
        esfl_train(net, [ToyUser(x=x, y=y, cut=1, epochs=np.int64(2))], rounds=1)

    def test_fractional_batch_size_rejected(self):
        rng = np.random.default_rng(23)
        net = init_dense_net([2, 3, 2], loss="mse", rng=rng)
        x, y = make_blobs(8, rng=rng)
        users = [ToyUser(x=x, y=y, cut=1)]
        for batch_size in (2.5, 4.0):
            with pytest.raises(ValueError, match="batch_size must be an integer >= 1"):
                esfl_train(net, users, rounds=1, batch_size=batch_size)

    def test_rounds_must_be_a_positive_integer(self):
        # a negative count used to return the network untouched, with an
        # empty trace
        rng = np.random.default_rng(24)
        net = init_dense_net([2, 3, 2], loss="mse", rng=rng)
        x, y = make_blobs(8, rng=rng)
        users = [ToyUser(x=x, y=y, cut=1)]
        for rounds in (-3, 0, 2.5, None):
            with pytest.raises(ValueError, match="rounds must be an integer >= 1"):
                esfl_train(net, users, rounds=rounds)
        # the incoming net's loss, then one per round
        assert len(esfl_train(net, users, rounds=np.int64(2))[1]) == 3

    def test_no_users_rejected(self):
        net = init_dense_net([2, 3, 2], loss="mse", rng=np.random.default_rng(22))
        with pytest.raises(ValueError, match="users"):
            esfl_train(net, [], rounds=1)


def _per_user_train(net, users, rounds, eta, rho0, batch_size):
    """The plain reference for esfl_train: every user steps alone, in order."""
    pooled_x = np.concatenate([u.x for u in users])
    pooled_y = np.concatenate([u.y for u in users])
    trace = [loss_value(net, pooled_x, pooled_y)]
    for r in range(rounds):
        rho = rho0 / (1.0 + r / 100.0)
        locals_ = []
        for u in users:
            step = len(u.x) if batch_size is None else batch_size
            state = split_net(net, u.cut, rho)
            for _ in range(u.epochs):
                for start in range(0, len(u.x), step):
                    batch = (u.x[start:start + step], u.y[start:start + step])
                    state = split_update(state, batch)
            locals_.append((concatenate(state), float(len(u.x))))
        net = _list_aggregate(net, locals_, eta)
        trace.append(loss_value(net, pooled_x, pooled_y))
    return net, trace


@st.composite
def _training_cases(draw):
    """A random net, and users whose cuts, sample counts and epoch counts
    collide often enough to form ragged stacked groups."""
    # outputs from 1 to 12 wide, both sides of the 8 classes at which the
    # softmax switches from its class-major copy to numpy's row reductions
    sizes = (draw(st.lists(st.integers(1, 5), min_size=2, max_size=4))
             + [draw(st.integers(1, 12))])
    depth = len(sizes) - 1
    loss = draw(st.sampled_from(LOSSES))
    names = st.sampled_from(sorted(ACTIVATIONS))
    hidden = draw(st.lists(names, min_size=depth - 1, max_size=depth - 1))
    head = "identity" if loss == "softmax_ce" else draw(names)
    user = st.tuples(st.integers(1, depth - 1), st.sampled_from([3, 7, 12]),
                     st.integers(1, 3))
    return {
        "sizes": sizes, "activations": hidden + [head], "loss": loss,
        "users": draw(st.lists(user, min_size=1, max_size=7)),
        "batch_size": draw(st.none() | st.integers(1, 8)),
        "rounds": draw(st.integers(1, 3)), "eta": draw(st.floats(0.1, 1.0)),
        "rho0": draw(st.floats(1e-3, 0.3)), "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _toy_users(rng, sizes, loss, specs):
    users = []
    for cut, n, epochs in specs:
        x = rng.normal(size=(n, sizes[0]))
        if loss == "mse":
            y = rng.normal(size=(n, sizes[-1]))
        else:
            y = np.eye(sizes[-1])[rng.integers(sizes[-1], size=n)]
        users.append(ToyUser(x=x, y=y, cut=cut, epochs=epochs))
    return users


class TestStackedTraining:
    """esfl_train steps users that share a sample count and an epoch count
    as one stack, whatever their cuts; each must train exactly as it would
    alone."""

    @seed(20248)
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(_training_cases())
    def test_matches_the_per_user_loop(self, case):
        rng = np.random.default_rng(case["seed"])
        net = init_dense_net(case["sizes"], case["activations"], case["loss"], rng)
        users = _toy_users(rng, case["sizes"], case["loss"], case["users"])
        kwargs = {k: case[k] for k in ("rounds", "eta", "rho0", "batch_size")}
        final, trace = esfl_train(net, users, **kwargs)
        ref_final, ref_trace = _per_user_train(net, users, **kwargs)
        np.testing.assert_allclose(trace, ref_trace, rtol=1e-12, atol=0)
        assert _max_rel_dev(final, ref_final) <= 1e-12

    def test_non_finite_loss_in_any_member_raises(self):
        rng = np.random.default_rng(18)
        net = init_dense_net([2, 3, 2], ["identity", "identity"], "mse", rng)
        for bad in range(3):
            users = []
            for i in range(3):
                x = rng.normal(size=(4, 2))
                if i == bad:
                    x[2, 0] = np.inf
                users.append(ToyUser(x=x, y=rng.normal(size=(4, 2)), cut=1))
            with np.errstate(invalid="ignore", over="ignore"), \
                    pytest.raises(FloatingPointError, match="^non-finite loss$"):
                esfl_train(net, users, rounds=1, batch_size=2)

    def test_a_loss_whose_terms_overflow_raises_as_the_reference_does(self):
        # finite outputs 1e200 off their labels: each difference is finite,
        # its square overflows, so the summed terms are inf exactly when the
        # loss is; the trainer tests the sum, the reference the loss
        rng = np.random.default_rng(31)
        net = init_dense_net([2, 3, 2], ["identity", "identity"], "mse", rng)
        for bad in range(3):
            users = []
            for i in range(3):
                x = rng.normal(size=(4, 2))
                if i == bad:
                    x[3] = 1e200
                users.append(ToyUser(x=x, y=rng.normal(size=(4, 2)), cut=1))
            for train in (esfl_train, _per_user_train):
                with np.errstate(over="ignore"), \
                        pytest.raises(FloatingPointError, match="^non-finite loss$"):
                    train(net, users, rounds=1, eta=0.5, rho0=0.01, batch_size=2)

    def test_feature_dimension_mismatch_raises(self):
        rng = np.random.default_rng(19)
        net = init_dense_net([2, 3, 2], loss="mse", rng=rng)
        y = rng.normal(size=(4, 2))
        # two users on 3 features form one stack against a 2-feature input layer
        users = [ToyUser(x=rng.normal(size=(4, 3)), y=y, cut=1) for _ in range(2)]
        with pytest.raises(ValueError, match="feature dimension"):
            esfl_train(net, users, rounds=1)
        stacked = split_net(DenseNet(
            tuple(np.stack([w, w]) for w in net.weights),
            tuple(np.stack([b, b]) for b in net.biases),
            net.activations, net.loss), 1, 0.1)
        with pytest.raises(ValueError, match="feature dimension"):
            split_update(stacked, (np.zeros((2, 4, 3)), np.zeros((2, 4, 2))))


def _ref_stacked(net, size):
    """``size`` copies of ``net`` stacked along a new leading axis."""
    def stack(arrays):
        return tuple(np.repeat(a[None], size, axis=0) for a in arrays)
    return DenseNet(stack(net.weights), stack(net.biases), net.activations, net.loss)


def _ref_joined(nets, order):
    """Stacked ``nets`` laid end to end along the member axis, members then
    taken in ``order``."""
    def join(layers):
        return tuple(np.concatenate(stacks)[order] for stacks in zip(*layers))
    return DenseNet(join(n.weights for n in nets), join(n.biases for n in nets),
                    nets[0].activations, nets[0].loss)


def _ref_stacked_update(state, x, y):
    """The functional split step: the reference step above, refusing a
    non-finite loss in any member as split_update does."""
    out, _ = _ref_forward(state.server_side, _ref_forward(state.user_side, x)[0])
    if not np.isfinite(_ref_loss_and_grad(out, y, state.server_side.loss)[0]).all():
        raise FloatingPointError("non-finite loss")
    user, server = _ref_split_update(state, x, y)
    return SplitState(user, server, state.cut, state.learning_rate)


def _functional_stacked_train(net, users, rounds, eta, rho0, batch_size):
    """The per-cut reference for esfl_train: each cut group steps a stacked
    copy of the global net, every minibatch building new sides with the
    reference split step, and the groups are joined in user order."""
    pooled_x = np.concatenate([u.x for u in users])
    pooled_y = np.concatenate([u.y for u in users])
    counts = [float(len(u.x)) for u in users]
    groups = {}
    for i, u in enumerate(users):
        groups.setdefault((u.cut, u.epochs, u.x.shape, u.y.shape), []).append(i)
    order = np.argsort([i for members in groups.values() for i in members])
    trace = [loss_value(net, pooled_x, pooled_y)]
    for r in range(rounds):
        rho = rho0 / (1.0 + r / 100.0)
        trained = []
        for members in groups.values():
            lead = users[members[0]]
            x = np.stack([users[i].x for i in members])
            y = np.stack([users[i].y for i in members])
            step = x.shape[-2] if batch_size is None else batch_size
            state = split_net(_ref_stacked(net, len(members)), lead.cut, rho)
            for _ in range(lead.epochs):
                for start in range(0, x.shape[-2], step):
                    rows = slice(start, start + step)
                    state = _ref_stacked_update(state, x[:, rows], y[:, rows])
            trained.append(concatenate(state))
        net = federated_aggregate(net, _ref_joined(trained, order), counts, eta)
        trace.append(loss_value(net, pooled_x, pooled_y))
    return net, trace


def _arrays(net: DenseNet):
    return [a.copy() for a in net.weights + net.biases]


class TestInPlaceTraining:
    """esfl_train steps each stack's parameters in place, in one flat buffer,
    with one full-network gradient pass per minibatch for members of any
    cut. The cut moves layers between device and server but not the
    arithmetic: every loss and parameter must equal the per-cut functional
    split trainer's bit for bit, and no input may change."""

    @seed(20250)
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(_training_cases())
    def test_matches_the_functional_trainer_bit_for_bit(self, case):
        rng = np.random.default_rng(case["seed"])
        net = init_dense_net(case["sizes"], case["activations"], case["loss"], rng)
        users = _toy_users(rng, case["sizes"], case["loss"], case["users"])
        before = _arrays(net)
        data = [(u.x.copy(), u.y.copy()) for u in users]
        kwargs = {k: case[k] for k in ("rounds", "eta", "rho0", "batch_size")}
        # large steps on identity layers diverge: then both must refuse the
        # same run, or agree on every overflowed value
        with np.errstate(all="ignore"):
            try:
                ref_final, ref_trace = _functional_stacked_train(net, users, **kwargs)
            except FloatingPointError:
                with pytest.raises(FloatingPointError):
                    esfl_train(net, users, **kwargs)
            else:
                final, trace = esfl_train(net, users, **kwargs)
                assert np.array_equal(trace, ref_trace, equal_nan=True)
                assert all(np.array_equal(p, q, equal_nan=True) for p, q in
                           zip(final.weights + final.biases,
                               ref_final.weights + ref_final.biases))
        assert all(np.array_equal(a, b) for a, b in zip(_arrays(net), before))
        assert all(np.array_equal(u.x, x) and np.array_equal(u.y, y)
                   for u, (x, y) in zip(users, data))

    def test_mixed_cut_stack_matches_the_per_cut_trainer(self):
        # equal shapes and epochs, so all four users form one stack
        rng = np.random.default_rng(23)
        sizes = [3, 5, 4, 3]
        net = init_dense_net(sizes, ["tanh", "relu", "identity"], "softmax_ce", rng)
        users = _toy_users(rng, sizes, "softmax_ce",
                           [(cut, 10, 2) for cut in (1, 2, 1, 2)])
        kwargs = {"rounds": 4, "eta": 0.7, "rho0": 0.2, "batch_size": 4}
        final, trace = esfl_train(net, users, **kwargs)
        ref_final, ref_trace = _functional_stacked_train(net, users, **kwargs)
        assert np.array_equal(trace, ref_trace)
        assert all(np.array_equal(p, q) for p, q in
                   zip(final.weights + final.biases,
                       ref_final.weights + ref_final.biases))

    def test_mse_relu_stack_matches_the_per_cut_trainer(self):
        # relu hidden and output layers under mse, a ragged last minibatch,
        # and two stacks, of 9 samples and of 6
        rng = np.random.default_rng(25)
        sizes = [3, 4, 5, 2]
        net = init_dense_net(sizes, ["relu", "relu", "relu"], "mse", rng)
        users = _toy_users(rng, sizes, "mse",
                           [(1, 9, 1), (2, 6, 2), (2, 9, 1), (1, 6, 2), (1, 9, 1)])
        kwargs = {"rounds": 5, "eta": 0.6, "rho0": 0.15, "batch_size": 4}
        final, trace = esfl_train(net, users, **kwargs)
        ref_final, ref_trace = _functional_stacked_train(net, users, **kwargs)
        assert np.array_equal(trace, ref_trace)
        assert all(np.array_equal(p, q) for p, q in
                   zip(final.weights + final.biases,
                       ref_final.weights + ref_final.biases))

    def test_one_output_stack_of_many_users_matches_the_per_cut_trainer(self):
        # from 8 members on, numpy sums a stacked one-value array (here the
        # output bias) pairwise, but a wider one member by member; 12 users
        # in two interleaved stacks
        rng = np.random.default_rng(26)
        sizes = [3, 4, 1]
        net = init_dense_net(sizes, ["tanh", "identity"], "mse", rng)
        users = _toy_users(rng, sizes, "mse", [(1, 5 + i % 2, 1) for i in range(12)])
        kwargs = {"rounds": 4, "eta": 0.8, "rho0": 0.2, "batch_size": 2}
        final, trace = esfl_train(net, users, **kwargs)
        ref_final, ref_trace = _functional_stacked_train(net, users, **kwargs)
        assert np.array_equal(trace, ref_trace)
        assert all(np.array_equal(p, q) for p, q in
                   zip(final.weights + final.biases,
                       ref_final.weights + ref_final.biases))

    def test_cut_out_of_range_in_any_member_rejected(self):
        rng = np.random.default_rng(24)
        sizes = [2, 3, 3, 2]
        net = init_dense_net(sizes, loss="mse", rng=rng)
        for bad in (0, 3):
            for where in range(3):
                cuts = [1, 2, 1]
                cuts[where] = bad
                users = _toy_users(rng, sizes, "mse", [(c, 4, 1) for c in cuts])
                with pytest.raises(ValueError, match=f"^cut must be an integer in 1..2, not {bad}$"):
                    esfl_train(net, users, rounds=1)

    @seed(20251)
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(_exact_cases())
    def test_split_update_leaves_its_state_unchanged(self, case):
        rng = np.random.default_rng(case["seed"])
        sizes, batch = case["sizes"], case["batch"]
        lead = () if case["members"] is None else (case["members"],)
        nets = [init_dense_net(sizes, case["activations"], case["loss"], rng)
                for _ in range(case["members"] or 1)]
        net = nets[0] if case["members"] is None else _stack(nets)
        x = rng.normal(size=lead + (batch, sizes[0]))
        y = rng.normal(size=lead + (batch, sizes[-1]))
        state = split_net(net, case["cut"], case["rho"])
        before = _arrays(net)
        split_update(state, (x, y))
        assert all(np.array_equal(a, b)
                   for a, b in zip(_arrays(concatenate(state)), before))


@st.composite
def _workspace_cases(draw):
    """A 2- to 4-layer structure, plain or stacked, its data, and the number
    of nets of that structure evaluated in turn."""
    depth = draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(1, 6), min_size=depth + 1, max_size=depth + 1))
    loss = draw(st.sampled_from(LOSSES))
    names = st.sampled_from(sorted(ACTIVATIONS))
    hidden = draw(st.lists(names, min_size=depth - 1, max_size=depth - 1))
    head = "identity" if loss == "softmax_ce" else draw(names)
    return {
        "sizes": sizes, "activations": hidden + [head], "loss": loss,
        "members": draw(st.none() | st.integers(1, 3)),
        "samples": draw(st.integers(1, 40)), "nets": draw(st.integers(3, 5)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _flat(nets, members):
    """The parameters of ``nets`` in the trainer's flat layout (w0, b0, w1,
    b1, ...): one vector, or a row per net when ``members`` is set."""
    rows = [np.concatenate([a.ravel() for layer in zip(n.weights, n.biases)
                            for a in layer]) for n in nets]
    return rows[0] if members is None else np.stack(rows)


class TestLossWorkspace:
    """esfl_train binds the pooled loss over views of its flat global
    vector once per run, in arrays it keeps, and evaluates it after every
    round's in-place update. Whatever the nets written into the vector in
    turn, every array must be written at every call, and the loss must
    equal loss_value's on new arrays bit for bit."""

    @seed(20252)
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(_workspace_cases())
    def test_bound_loss_matches_loss_value_bit_for_bit(self, case):
        rng = np.random.default_rng(case["seed"])
        sizes, loss, members = case["sizes"], case["loss"], case["members"]
        shape = (members or 1, case["samples"])
        x = rng.normal(size=shape + (sizes[0],))
        y = (rng.normal(size=shape + (sizes[-1],)) if loss == "mse"
             else np.eye(sizes[-1])[rng.integers(sizes[-1], size=shape)])
        if members is None:
            x, y = x[0], y[0]
        template = init_dense_net(sizes, case["activations"], loss, rng)
        flat = _flat([template] * (members or 1), members)
        bound, (layers, terms) = split_training._bind_loss(
            split_training._flat_views(flat, template), x, y)
        arrays = layers + list(terms)
        for _ in range(case["nets"]):
            nets = [init_dense_net(sizes, case["activations"], loss, rng)
                    for _ in range(members or 1)]
            flat[...] = _flat(nets, members)
            for a in arrays:   # stale values must not leak into a call
                a.fill(np.nan)
            value = bound()
            assert not any(np.isnan(a).any() for a in arrays)
            if members is None:
                assert _same_bits(value, loss_value(nets[0], x, y))
            else:
                assert _same_bits(value, [loss_value(n, x[i], y[i])
                                          for i, n in enumerate(nets)])


# logit values whose reductions are edge cases: signed zeros, logits whose
# exponentials underflow or overflow, infinities and NaN
_SPECIAL_LOGITS = np.array([0.0, -0.0, -800.0, 800.0, np.inf, -np.inf, np.nan])


@st.composite
def _logit_cases(draw):
    """Softmax inputs of 1 to 12 classes, both sides of the 8 at which the
    class reductions switch: pooled (n, C) or stacked (M, n, C) logits and
    one-hot labels, drawn from a seed (see _logits)."""
    lead = draw(st.sampled_from([(), (1,), (3,), (8,)]))
    shape = lead + (draw(st.integers(1, 40)), draw(st.integers(1, 12)))
    return shape, draw(st.integers(0, 2**32 - 1))


def _logits(rng, shape):
    """Logits whose rows are each of one kind: plain; rounded, so ties and
    signed zeros; with special values; or one 0 among -37s. exp(-37) lies
    in (2**-54, 2**-53), so 1 + exp(-37) rounds to 1 but 1 + 2 * exp(-37)
    does not: that row's exp-sum depends on the order of its additions."""
    out = rng.normal(scale=10.0, size=shape)
    kind = rng.integers(4, size=shape[:-1])
    out[kind == 1] = np.round(out[kind == 1] / 8.0)
    special = (kind == 2)[..., None] & (rng.random(shape) < 0.5)
    out[special] = rng.choice(_SPECIAL_LOGITS, size=int(special.sum()))
    out[kind == 3] = -37.0
    for row in zip(*np.nonzero(kind == 3)):
        out[row + (rng.integers(shape[-1]),)] = 0.0
    return out


def _row_loss_terms(out, y):
    """The softmax cross-entropy of _loss_terms with numpy's own row
    reductions over the class axis."""
    shifted = out - out.max(axis=-1, keepdims=True)
    expz = np.exp(shifted)
    probs = expz / expz.sum(axis=-1, keepdims=True)
    terms = y * np.log(np.maximum(probs, 1e-300))
    return -terms.sum(axis=(-2, -1)) / out.shape[-2], (probs, terms)


def _same_bits(a, b) -> bool:
    """Equal shapes and bits, any NaN matching any NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


class TestClassReductions:
    """Below 8 classes the softmax's max and exp-sum reduce a class-major
    copy over its leading axis. That matches numpy's row reductions bit for
    bit only while numpy adds a short row in order; the order-sensitive
    rows of _logits make this test fail on a numpy that does not."""

    @seed(20253)
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_logit_cases())
    def test_softmax_terms_match_the_row_reductions_bit_for_bit(self, case):
        shape, rng_seed = case
        rng = np.random.default_rng(rng_seed)
        out = _logits(rng, shape)
        y = np.eye(shape[-1])[rng.integers(shape[-1], size=shape[:-1])]
        with np.errstate(all="ignore"):
            value, (probs, terms) = _loss_terms(out, y, "softmax_ce")
            ref_value, (ref_probs, ref_terms) = _row_loss_terms(out, y)
        assert _same_bits(value, ref_value)
        assert _same_bits(probs, ref_probs)
        assert _same_bits(terms, ref_terms)

    @pytest.mark.parametrize("classes", range(3, 8))
    def test_order_sensitive_rows_tell_the_orders_apart(self, classes):
        # the guard above needs rows whose in-order sum differs from others
        row = np.exp(np.full(classes, -37.0))
        row[0] = 1.0
        assert np.add.reduce(row) == 1.0
        assert np.add.reduce(row[::-1]) != 1.0


@pytest.fixture
def no_arithmetic(monkeypatch):
    """Fails any forward pass: the one-shot functions' and the trainer's
    bound steps and pooled loss, all of which begin with one."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a forward pass ran before the batch was checked")
    monkeypatch.setattr(split_training, "_forward_segment", forbidden)
    monkeypatch.setattr(split_training, "_bind_pass", lambda *args: forbidden)


def test_the_batch_check_fixture_trips_on_valid_batches(no_arithmetic):
    # else the refusals below could pass without checking anything
    rng = np.random.default_rng(30)
    net = init_dense_net([2, 4, 3], ["tanh", "identity"], "softmax_ce", rng)
    x, y = rng.normal(size=(10, 2)), np.eye(3)[rng.integers(3, size=10)]
    for call in (lambda: esfl_train(net, [ToyUser(x=x, y=y, cut=1)] * 2, rounds=1),
                 lambda: loss_value(net, x, y),
                 lambda: loss_and_grads(net, x, y),
                 lambda: monolithic_update(net, (x, y), 0.1),
                 lambda: split_update(split_net(net, 1, 0.1), (x, y))):
        with pytest.raises(AssertionError, match="^a forward pass ran"):
            call()


class TestLabelShapes:
    """Labels hold one row per sample of the output layer's width. Any
    other shape is refused before any arithmetic, naming its owner and
    both shapes; unchecked, a width of 1 broadcasts into a wrong loss and
    other shapes fail mid-training."""

    BAD = [(10, 1), (10, 2), (10, 4), (9, 3), (10,), (1, 10, 3)]

    @staticmethod
    def _net():
        rng = np.random.default_rng(26)
        net = init_dense_net([2, 4, 3], ["tanh", "identity"], "softmax_ce", rng)
        return net, rng.normal(size=(10, 2)), np.eye(3)[rng.integers(3, size=10)]

    @staticmethod
    def _message(owner, y_shape, x_shape=(10, 2)):
        return re.escape(f"{owner} labels of shape {y_shape} do not match samples "
                         f"of shape {x_shape} and an output layer of width 3")

    @pytest.mark.parametrize("y_shape", BAD)
    def test_esfl_train_names_the_user(self, y_shape, no_arithmetic):
        net, x, y = self._net()
        users = [ToyUser(x=x, y=y, cut=1), ToyUser(x=x, y=np.zeros(y_shape), cut=1)]
        with pytest.raises(ValueError, match=self._message("users[1]", y_shape)):
            esfl_train(net, users, rounds=1)

    @pytest.mark.parametrize("y_shape", BAD)
    def test_single_batch_entries_refuse(self, y_shape, no_arithmetic):
        net, x, _ = self._net()
        y = np.zeros(y_shape)
        for call in (lambda: loss_value(net, x, y),
                     lambda: loss_and_grads(net, x, y),
                     lambda: monolithic_update(net, (x, y), 0.1),
                     lambda: split_update(split_net(net, 1, 0.1), (x, y))):
            with pytest.raises(ValueError, match=self._message("batch", y_shape)):
                call()

    def test_stacked_split_update_refuses(self, no_arithmetic):
        net, x, y = self._net()
        state = split_net(_stack([net, net]), 1, 0.1)
        xs = np.stack([x, x])
        with pytest.raises(ValueError, match=self._message("batch", (10, 3), (2, 10, 2))):
            split_update(state, (xs, y))

    def test_matching_labels_train(self):
        net, x, y = self._net()
        _, trace = esfl_train(net, [ToyUser(x=x, y=y, cut=1)], rounds=2)
        assert trace[0] == loss_value(net, x, y)


class TestEmptyBatches:
    """A batch without samples is refused before any arithmetic, naming its
    owner: the loss and its gradient would divide by its sample count."""

    def test_esfl_train_names_the_user(self, no_arithmetic):
        net = init_dense_net([2, 3, 2], rng=np.random.default_rng(27))
        full = ToyUser(np.ones((4, 2)), np.ones((4, 2)), 1)
        for users, owner in (([ToyUser(np.zeros((0, 2)), np.zeros((0, 2)), 1), full],
                              "users[0]"),
                             ([full, ToyUser(np.zeros((0, 2)), np.zeros((0, 2)), 1)],
                              "users[1]")):
            with pytest.raises(ValueError, match=re.escape(f"{owner} holds no samples")):
                esfl_train(net, users, rounds=1)

    def test_single_batch_entries_refuse(self, no_arithmetic):
        net = init_dense_net([2, 3, 2], rng=np.random.default_rng(28))
        # a lone feature vector holds no row per sample either
        for x, y, state_net in ((np.zeros((0, 2)), np.zeros((0, 2)), net),
                                (np.zeros((2, 0, 2)), np.zeros((2, 0, 2)),
                                 _stack([net, net])),
                                (np.zeros(2), np.zeros(2), net)):
            for call in (lambda: loss_value(net, x, y),
                         lambda: loss_and_grads(net, x, y),
                         lambda: monolithic_update(net, (x, y), 0.1),
                         lambda: split_update(split_net(state_net, 1, 0.1), (x, y))):
                with pytest.raises(ValueError, match="^batch holds no samples"):
                    call()


# preactivations at which reading a derivative from the output could differ
# from reading it from the preactivation: signed zeros, subnormals, NaN and
# infinities. A matmul sums from +0.0, so it never yields -0.0; the primitive
# test below feeds -0.0 to the activations directly
_SPECIAL_PREACTIVATIONS = {
    "zeros": [0.0, -0.0],
    "subnormals": [5e-324, -5e-324, 2.5e-310, -2.5e-310],
    "infinities": [np.inf, -np.inf],
    "nan": [np.nan],
}


class TestOutputDerivatives:
    """Backpropagation reads each derivative from the layer's output: tanh'
    as 1 - a**2 and relu' as a > 0. At every preactivation, special values
    included, that must give the textbook derivative of the preactivation
    bit for bit, and loss_and_grads and split_update must equal the
    reference above, which computes it from z."""

    @pytest.mark.parametrize("name", ["relu", "tanh"])
    def test_derivative_from_the_output_is_the_derivative_at_z(self, name):
        z = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, np.inf,
                      -np.inf, np.nan, 1.5, -1.5, 30.0, -30.0])
        activation, derivative = ACTIVATIONS[name]
        ref = _REF_ACTIVATIONS[name][1](z)
        a = activation(z.copy(), out=None)
        assert _same_bits(a, _REF_ACTIVATIONS[name][0](z))
        assert _same_bits(derivative(a), ref)
        assert _same_bits(derivative(a, np.empty_like(z)), ref)

    @pytest.mark.parametrize("kind", sorted(_SPECIAL_PREACTIVATIONS))
    @pytest.mark.parametrize("name", ["relu", "tanh"])
    @pytest.mark.parametrize("loss", LOSSES)
    @pytest.mark.parametrize("members", [None, 2])
    def test_special_preactivations_match_the_reference(self, kind, name, loss,
                                                        members, monkeypatch):
        # NaN and overflowing losses must reach backpropagation, so the
        # finite-loss guard is lifted here
        monkeypatch.setattr(split_training, "_check_finite", lambda value: None)
        rng = np.random.default_rng(29)
        sizes = [1, 4, 3, 3]
        nets = []
        for _ in range(members or 1):
            net = init_dense_net(sizes, [name, name, "identity"], loss, rng)
            # layer 0's preactivation is x times each of these, exactly
            w0 = np.array([[1.0, -1.0, 0.5, 2.0]])
            nets.append(DenseNet((w0,) + net.weights[1:],
                                 (np.full(4, -0.0),) + net.biases[1:],
                                 net.activations, loss))
        net = nets[0] if members is None else _stack(nets)
        lead = () if members is None else (members,)
        specials = _SPECIAL_PREACTIVATIONS[kind]
        column = np.concatenate([specials, rng.normal(size=6)])
        n = len(column)
        x = np.broadcast_to(column[:, None], lead + (n, 1)).copy()
        y = (rng.normal(size=lead + (n, 3)) if loss == "mse"
             else np.eye(3)[rng.integers(3, size=lead + (n,))])
        with np.errstate(all="ignore"):
            z0 = _ref_forward(net, x)[1][0][1]
            assert all(_same_bits(z0[..., i, 0], np.full(lead, v))
                       for i, v in enumerate(specials) if not (v == 0 and np.signbit(v)))
            value, dws, dbs = loss_and_grads(net, x, y)
            ref_value, ref_dws, ref_dbs = _ref_loss_and_grads(net, x, y)
            assert _same_bits(value, ref_value)
            assert all(_same_bits(g, r) for g, r in zip(dws + dbs, ref_dws + ref_dbs))
            for cut in range(1, net.num_layers):
                state = split_net(net, cut, 0.1)
                user, server = _ref_split_update(state, x, y)
                stepped = split_update(state, (x, y))
                for got, want in ((stepped.user_side, user), (stepped.server_side, server)):
                    assert all(_same_bits(p, q) for p, q in
                               zip(got.weights + got.biases, want.weights + want.biases))


@st.composite
def _step_cases(draw):
    """A 2- to 4-layer structure, plain or stacked, a sample count and a
    minibatch size that leaves a ragged last minibatch, and an epoch count."""
    case = draw(_workspace_cases())
    samples = draw(st.integers(3, 30))
    case["samples"] = samples
    case["batch_size"] = draw(st.integers(2, samples - 1).filter(lambda b: samples % b))
    case["epochs"] = draw(st.integers(1, 3))
    return case


class TestStepWorkspace:
    """esfl_train binds one SGD step per minibatch of each stack once per
    run, each running in the work set of its minibatch length: each
    layer's output, dz and input gradient, and the loss's two. Through
    several minibatches and epochs, a ragged last minibatch included, the
    steps of one length must share one work set, every step must write
    all of its arrays and the gradient buffer, and the gradients and
    parameters must have the bits that _gradients gives on new arrays."""

    @seed(20254)
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(_step_cases())
    def test_bound_steps_match_new_arrays_bit_for_bit(self, case):
        rng = np.random.default_rng(case["seed"])
        sizes, loss, members = case["sizes"], case["loss"], case["members"]
        samples, size = case["samples"], case["batch_size"]
        shape = (members or 1, samples)
        x = rng.normal(size=shape + (sizes[0],))
        y = (rng.normal(size=shape + (sizes[-1],)) if loss == "mse"
             else np.eye(sizes[-1])[rng.integers(sizes[-1], size=shape)])
        if members is None:
            x, y = x[0], y[0]
        nets = [init_dense_net(sizes, case["activations"], loss, rng)
                for _ in range(members or 1)]
        fresh = nets[0] if members is None else _stack(nets)
        # the trainer's layout: a flat parameter row per member, and views
        params = _flat(nets, members)
        grads = np.empty_like(params)
        stack = split_training._flat_views(params, nets[0])
        grad_stack = split_training._flat_views(grads, nets[0])

        pairs = split_training._batches(nets[0], params, grads, x, y, size)
        works = [work for _, work in pairs]
        assert len(pairs) == -(-samples // size)
        assert all(work is works[0] for work in works[:-1])   # one full length
        assert works[-1] is not works[0]                       # and a ragged one
        for work, length in ((works[0], size), (works[-1], samples % size)):
            assert work[0][0].shape[-2] == length
        rho = 2.0 ** -4   # scales the gradient exactly, so grads keep its bits
        for _ in range(case["epochs"]):
            for start, (step, (layers, terms, back)) in zip(range(0, samples, size), pairs):
                xb, yb = x[..., start:start + size, :], y[..., start:start + size, :]
                arrays = layers + list(terms) + [a for pair in back for a in pair
                                                 if a is not None]
                for a in arrays + [grads]:   # stale values must not leak into a step
                    a.fill(np.nan)
                step(rho)
                # every array was written: the data and parameters are finite
                assert not any(np.isnan(a).any() for a in arrays + [grads])

                _, f_dws, f_dbs = split_training._gradients(fresh, xb, yb)
                assert all(_same_bits(g, np.multiply(rho, f)) for g, f in
                           zip(grad_stack.weights + grad_stack.biases, f_dws + f_dbs))
                fresh = _ref_step(fresh, f_dws, f_dbs, rho)
                assert all(_same_bits(a, b) for a, b in
                           zip(stack.weights + stack.biases, fresh.weights + fresh.biases))


class TestMakeBlobs:
    def test_shapes_and_one_hot(self):
        x, y = make_blobs(30, n_classes=3, dim=4, rng=np.random.default_rng(14))
        assert x.shape == (30, 4)
        assert y.shape == (30, 3)
        assert np.all(y.sum(axis=1) == 1.0)

    def test_classes_balanced(self):
        _, y = make_blobs(30, n_classes=3, rng=np.random.default_rng(15))
        assert set(y.sum(axis=0)) == {10.0}

    def test_seeded_reproducibility(self):
        a = make_blobs(16, rng=np.random.default_rng(16))
        b = make_blobs(16, rng=np.random.default_rng(16))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
