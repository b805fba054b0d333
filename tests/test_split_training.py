import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from esfl import (
    DenseNet,
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
from esfl.split_training import ACTIVATIONS, LOSSES


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
        out = federated_aggregate(g, [(l1, 1.0), (l2, 3.0)], eta=1.0)
        for j in range(g.num_layers):
            expected = 0.25 * l1.weights[j] + 0.75 * l2.weights[j]
            assert np.allclose(out.weights[j], expected, rtol=1e-12, atol=0)

    def test_zero_step_keeps_global(self):
        g, l1, l2 = self._nets()
        out = federated_aggregate(g, [(l1, 1.0), (l2, 1.0)], eta=0.0)
        assert _max_rel_dev(out, g) == 0.0

    def test_half_step_single_local_is_midpoint(self):
        g, l1, _ = self._nets()
        out = federated_aggregate(g, [(l1, 5.0)], eta=0.5)
        for j in range(g.num_layers):
            midpoint = 0.5 * (g.weights[j] + l1.weights[j])
            assert np.allclose(out.weights[j], midpoint, rtol=1e-12, atol=0)

    def test_structural_mismatch_rejected(self):
        g, _, _ = self._nets()
        other = init_dense_net([2, 4, 2], rng=np.random.default_rng(9))
        with pytest.raises(ValueError):
            federated_aggregate(g, [(other, 1.0)], eta=1.0)

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
        via_blend = federated_aggregate(g, [(blended, 2.0)], eta=eta)
        out1 = federated_aggregate(g, [(l1, 2.0)], eta=eta)
        out2 = federated_aggregate(g, [(l2, 2.0)], eta=eta)
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


    def test_non_positive_epochs_rejected(self):
        x, y = make_blobs(8, rng=np.random.default_rng(17))
        for epochs in (0, -1):
            with pytest.raises(ValueError, match="epochs"):
                ToyUser(x=x, y=y, cut=1, epochs=epochs)


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
