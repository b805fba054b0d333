import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from esfl import (
    AllocationError,
    ConfigError,
    InfeasibleLinkError,
    InfeasibleUserError,
    OptimizerConfig,
    UserBatch,
    deepest_cut,
    default_fixed_cut,
    esfl_round_time,
    feasibility_mask,
    fl_round_time,
    load_architecture,
    load_builtin,
    plan_rows,
    preset_scenarios,
    round_terms,
    sample_rounds,
    server_demand_terms,
    sfl_round_time,
    sl_round_time,
)
from esfl.simulation import sample_population_data

VGG19_PARAM_TOTAL = 143.6503  # column sum of the profile, 1e6 elements


def _users(n=500.0, tflops=2.0, kbps=25.0, epochs=5, uid=None, **limits):
    """A checked batch; each argument holds one value for every user, or
    one per user."""
    rate = np.multiply(kbps, 1024.0)
    return UserBatch.checked(n, np.multiply(tflops, 1e12), rate, rate, epochs,
                             user_ids=uid, **limits)


def _raw_user(n, flops, up, down, epochs=1):
    return UserBatch.checked(n, flops, up, down, epochs)


def _doc(rows):
    return io.StringIO("layer,params,fwd_flops,activation\n" + "\n".join(rows) + "\n")


@pytest.fixture(scope="module")
def vgg19():
    return load_builtin("vgg19")


class TestEpochTime:
    def test_device_compute_arithmetic(self, vgg19):
        u = _raw_user(500, 2e12, 1e6, 1e6)
        terms = round_terms(u, vgg19, [5], 1e12)
        assert terms.t_c[0] == pytest.approx(vgg19.user_flops_by_cut[4] * 500 / 2e12,
                                             rel=1e-12)

    def test_quarter_second_example(self):
        # n=500 samples of 1e9 FLOPs each on a 2 TFLOPs device: cut 1 of a
        # profile whose first layer trains at 500 MFLOPs x (1 + kappa=1)
        arch = load_architecture(_doc(["A,0,500,0", "B,0,100,0"]), bwd_multiplier=1.0)
        assert arch.user_flops_by_cut[0] == 1e9
        u = _raw_user(500, 2e12, 1e6, 1e6)
        assert round_terms(u, arch, [1], 1e12).t_c[0] == pytest.approx(0.25, rel=1e-12)

    def test_cut_at_last_layer_has_no_server_time(self, vgg19):
        L = vgg19.num_layers
        terms = round_terms(_raw_user(500, 1e12, 1e4, 1e4), vgg19, [L], 0.0)
        assert terms.t_C[0] == 0.0
        # the final layer emits no activation in this profile
        assert terms.t_b[0] == 0.0 and terms.t_B[0] == 0.0

    def test_doubling_server_compute_halves_server_time(self, vgg19):
        u = _raw_user(500, 1e12, 1e4, 1e4)
        a = round_terms(u, vgg19, [3], 1e12)
        b = round_terms(u, vgg19, [3], 2e12)
        assert b.t_C[0] == pytest.approx(a.t_C[0] / 2, rel=1e-12)
        assert (b.t_c[0], b.t_b[0], b.t_B[0]) == (a.t_c[0], a.t_b[0], a.t_B[0])

    def test_zero_server_compute_with_server_work(self, vgg19):
        u = _raw_user(500, 1e12, 1e4, 1e4)
        with pytest.raises(AllocationError):
            round_terms(u, vgg19, [3], 0.0)
        with pytest.raises(AllocationError):
            sfl_round_time(u, vgg19, 3, 0.0)
        # the every-cut form prices the same cut to +inf instead of raising
        assert round_terms(u, vgg19, None, 0.0).total[0, 2] == np.inf

    def test_zero_rate_with_traffic(self, vgg19):
        u = _raw_user(500, 1e12, 0.0, 1e4)
        with pytest.raises(InfeasibleLinkError):
            round_terms(u, vgg19, [3], 1e12)
        with pytest.raises(InfeasibleLinkError):
            sl_round_time(u, vgg19, 3, 1e12)
        assert round_terms(u, vgg19, None, 1e12).t_b[0, 2] == np.inf

    def test_total_reconstructs_from_parts(self, vgg19):
        terms = round_terms(_raw_user(500, 1e12, 1e4, 2e4), vgg19, [7], 1e12)
        parts = terms.t_c[0] + terms.t_b[0] + terms.t_C[0] + terms.t_B[0]
        assert terms.epoch[0] == parts


class TestRoundTime:
    def test_zero_epochs_degenerate(self, vgg19):
        # below the checked range: planning refuses it, pricing does not
        zero = dataclasses.replace(_users(), epochs=np.zeros(1))
        terms = round_terms(zero, vgg19, [3], 1e12, t_agg=1.5)
        assert terms.epochs[0] == 0
        assert terms.total[0] == terms.t_up[0] + terms.t_down[0] + 1.5

    def test_symmetric_rates_symmetric_model_transfer(self, vgg19):
        terms = round_terms(_users(), vgg19, [4], 1e12)
        assert terms.t_up[0] == terms.t_down[0]

    def test_full_model_upload_at_25_kbps(self, vgg19):
        # model bytes / rate, derived from the profile's parameter column
        terms = round_terms(_users(kbps=25.0), vgg19, [vgg19.num_layers], 0.0)
        expected = VGG19_PARAM_TOTAL * 4e6 / (25 * 1024.0)
        assert terms.t_up[0] == pytest.approx(expected, rel=1e-12)
        assert terms.t_up[0] == pytest.approx(22445.359375, rel=1e-9)

    def test_round_total_reconstructs(self, vgg19):
        terms = round_terms(_users(), vgg19, [6], 2e12, t_agg=0.25)
        t_up, t_down, epoch = terms.t_up[0], terms.t_down[0], terms.epoch[0]
        assert terms.total[0] == t_up + t_down + 5 * epoch + 0.25
        # up to five epochs the closed form equals summing one epoch per epoch
        assert terms.total[0] == t_up + t_down + sum([epoch] * 5) + 0.25

    def test_scale_covariance_in_samples(self, vgg19):
        terms = round_terms(_users(n=[200.0, 600.0]), vgg19, [5, 5], 1e12)
        for part in ("t_c", "t_b", "t_C", "t_B"):
            small, large = getattr(terms, part)
            assert large == pytest.approx(3 * small, rel=1e-12)


class TestRoundPolicies:
    def test_esfl_single_user(self, vgg19):
        u = _users()
        t, _ = esfl_round_time((5,), 1e12, u, vgg19)
        assert t == round_terms(u, vgg19, [5], 1e12).total[0]

    def test_esfl_identical_users_equal_totals(self, vgg19):
        users = _users(uid=range(2))
        t, comm = esfl_round_time((5, 5), np.array([1e12, 1e12]), users, vgg19)
        single = round_terms(users.rows(slice(1)), vgg19, [5], 1e12)
        assert (t, comm) == (single.total[0], single.communication[0])

    def test_esfl_max_dominates_each_user(self, vgg19):
        users = _users(kbps=[10, 100], tflops=[2.0, 4.0])
        cuts, compute = (3, 8), np.array([5e11, 5e11])
        t, comm = esfl_round_time(cuts, compute, users, vgg19)
        totals = round_terms(users, vgg19, cuts, compute).total
        assert np.all(t >= totals)
        assert comm <= t

    def test_fl_single_user_formula(self, vgg19):
        u = _users(epochs=1)
        L = vgg19.num_layers
        model_bytes = vgg19.model_bytes_by_cut[L - 1]
        d = vgg19.total_compute_per_sample
        expected = (model_bytes / u.up[0] + model_bytes / u.down[0]
                    + d * u.n_samples[0] / u.compute_flops[0] + 0.75)
        t, comm = fl_round_time(u, vgg19, t_agg=0.75)
        assert t == pytest.approx(expected, rel=1e-12)
        assert comm == pytest.approx(2 * model_bytes / u.up[0], rel=1e-12)

    def test_fl_equals_esfl_with_cuts_forced_to_last_layer(self, vgg19):
        users = _users(kbps=[10, 15, 20])
        L = vgg19.num_layers
        assert (esfl_round_time((L,) * 3, np.zeros(3), users, vgg19)
                == fl_round_time(users, vgg19))

    def test_fl_monotone_in_device_compute(self, vgg19):
        slow = _users(tflops=1.0)
        fast = _users(tflops=4.0)
        assert fl_round_time(fast, vgg19)[0] <= fl_round_time(slow, vgg19)[0]

    def test_sfl_single_user_equals_esfl_with_full_budget(self, vgg19):
        u = _users()
        assert (sfl_round_time(u, vgg19, 4, 130e12)
                == esfl_round_time((4,), np.array([130e12]), u, vgg19))

    def test_sfl_at_last_layer_equals_fl(self, vgg19):
        users = _users(tflops=[1.0, 2.0, 3.0])
        L = vgg19.num_layers
        assert sfl_round_time(users, vgg19, L, 130e12) == fl_round_time(users, vgg19)

    def test_sl_single_user_equals_sfl(self, vgg19):
        u = _users()
        assert sl_round_time(u, vgg19, 4, 130e12) == sfl_round_time(u, vgg19, 4, 130e12)

    def test_sl_identical_users_sum(self, vgg19):
        users = _users(uid=range(10))
        single = round_terms(users.rows(slice(1)), vgg19, [4], 130e12)
        t, comm = sl_round_time(users, vgg19, 4, 130e12, t_agg=2.0)
        assert t == pytest.approx(10 * single.total[0] + 2.0, rel=1e-12)
        assert comm == pytest.approx(10 * single.communication[0], rel=1e-12)


class TestStragglerAttribution:
    def test_tie_goes_to_the_largest_server_independent_time(self, vgg19):
        # user 0 waits longer on its slow link; server shares are picked so
        # both users finish at one level, as the min-max resource pass does
        batch = _users(kbps=[10, 25])
        cuts = (5, 3)
        fixed = round_terms(batch, vgg19, cuts, np.inf).fixed
        work = 5 * round_terms(batch, vgg19, cuts, 1.0).server_work
        assert fixed[0] > fixed[1]
        compute = work / (fixed.max() + 100.0 - fixed)
        terms = round_terms(batch, vgg19, cuts, compute)
        assert abs(terms.total[0] - terms.total[1]) <= 1e-12 * terms.total.max()
        for order in ((0, 1), (1, 0)):  # the answer follows the user, not the index
            picked = batch.rows(list(order))
            t, comm = esfl_round_time([cuts[k] for k in order], compute[list(order)],
                                      picked, vgg19)
            assert t == terms.total.max()
            assert comm == terms.communication[0]

    def test_esfl_attribution_is_stable_under_compute_rounding(self, vgg19):
        # every funded user ends at one level, so argmax(totals) alone would
        # pick whichever user the last digits of the compute favour
        moved = 0
        for spec in preset_scenarios().values():
            rng = np.random.default_rng(spec.seed)
            batch = sample_rounds(spec, rng, sample_population_data(spec, rng), 8)
            plan = plan_rows(batch, vgg19, spec.server_tflops * 1e12)
            for r in range(8):
                users = batch.rows(r)
                cuts, compute = plan.cuts[r], plan.server_compute[r]
                terms = round_terms(users, vgg19, cuts, compute)
                _, comm = esfl_round_time(cuts, compute, users, vgg19)
                for scale in (1 - 1e-10, 1 + 1e-10):
                    shifted = round_terms(users, vgg19, cuts, compute * scale)
                    moved += int(np.argmax(shifted.total) != np.argmax(terms.total))
                    assert esfl_round_time(cuts, compute * scale, users, vgg19)[1] == comm
        assert moved > 0  # the plain argmax does move on these rounds

    def test_rows_price_like_each_row(self, vgg19):
        spec = preset_scenarios()["LH"]
        rng = np.random.default_rng(2)
        batch = sample_rounds(spec, rng, sample_population_data(spec, rng), 5)
        cuts = np.broadcast_to(np.array([[4], [1], [7], [4], [20]]), batch.shape)
        for policy in (lambda b, c: fl_round_time(b, vgg19, 1.5),
                       lambda b, c: sfl_round_time(b, vgg19, c, 130e12, 1.5),
                       lambda b, c: sl_round_time(b, vgg19, c, 130e12, 1.5)):
            times, comms = policy(batch, cuts)
            assert times.shape == comms.shape == (5,)
            for r in range(5):
                assert (times[r], comms[r]) == policy(batch.rows(r), cuts[r])


class TestRoundTermsInput:
    def test_cut_count_and_range_checked(self, vgg19):
        batch = _users(uid=range(2))
        for cuts in ([3], [3, 4, 5], [0, 3], [3, vgg19.num_layers + 1]):
            with pytest.raises(ValueError):
                round_terms(batch, vgg19, cuts, 1e12)

    def test_shared_cut_prices_like_one_cut_per_user(self, vgg19):
        batch = _users(n=[200.0, 500.0], kbps=[25.0, 10.0])
        shared = round_terms(batch, vgg19, 4, 1e12)
        per_user = round_terms(batch, vgg19, [4, 4], 1e12)
        assert np.array_equal(shared.total, per_user.total)
        assert np.array_equal(shared.communication, per_user.communication)

    def test_non_finite_user_fields_rejected(self):
        for bad in ({"n": np.nan}, {"n": np.inf}, {"tflops": np.nan},
                    {"storage_bytes": np.nan}, {"memory_bytes": np.nan}):
            with pytest.raises(ConfigError):
                _users(**bad)
        _users(storage_bytes=np.inf, memory_bytes=np.inf)  # unlimited is fine

    def test_cut_beyond_storage_rejected(self, vgg19):
        u = _users(storage_bytes=vgg19.model_bytes_by_cut[2])
        round_terms(u, vgg19, [3], 1e12)
        with pytest.raises(InfeasibleUserError):
            round_terms(u, vgg19, [4], 1e12)


class TestDefaultFixedCut:
    def test_unconstrained_users_get_first_layer(self, vgg19):
        assert default_fixed_cut(_users(), vgg19) == 1

    def test_storage_constrained(self, vgg19):
        # too small for every cut except none -> error raised at zero cuts;
        # allow exactly the third prefix -> first feasible is still layer 1
        small = _users(storage_bytes=vgg19.model_bytes_by_cut[2])
        assert default_fixed_cut(small, vgg19) == 1

    def test_memory_boundary_is_inclusive(self, vgg19):
        # a budget exactly equal to the layer-1 requirement still admits it,
        # and one just below it admits no cut
        need = vgg19.model_bytes_by_cut[0] + vgg19.cum_act_bytes_by_cut[0]
        assert default_fixed_cut(_users(memory_bytes=need), vgg19) == 1
        with pytest.raises(InfeasibleUserError):
            default_fixed_cut(_users(memory_bytes=np.nextafter(need, 0)), vgg19)


# a layer's params or activations (1e6 elements), now and then zero
_SIZE = st.one_of(st.just(0.0), st.floats(0.001, 50.0), st.floats(0.001, 50.0))


class TestFeasibilityIsAPrefix:
    """A cut's storage and memory needs are sums of layer sizes >= 0, so a
    user's feasible cuts run from 1 to its deepest cut."""

    @seed(20263)
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(_SIZE, _SIZE), min_size=2, max_size=7), st.data())
    def test_mask_is_the_direct_test_and_a_prefix(self, layers, data):
        arch = load_architecture(_doc([f"L{j},{p!r},1.0,{a!r}"
                                       for j, (p, a) in enumerate(layers)]))
        model_b = arch.model_bytes_by_cut
        mem_b = model_b + arch.cum_act_bytes_by_cut

        def limits(need):
            # none, unlimited, and a cut's need or the float just below it
            cut = st.integers(0, len(need) - 1)
            return st.lists(st.one_of(
                st.just(0.0), st.just(math.inf), cut.map(lambda j: need[j]),
                cut.map(lambda j: np.nextafter(need[j], 0.0))), min_size=6, max_size=6)

        storage, memory = (np.array(data.draw(limits(need))) for need in (model_b, mem_b))
        batch = _users(storage_bytes=storage, memory_bytes=memory).rows([[0, 1, 2],
                                                                         [3, 4, 5]])
        # the reference: both needs tested at every cut
        direct = ((model_b <= batch.storage_bytes[..., None])
                  & (mem_b <= batch.memory_bytes[..., None]))
        mask = feasibility_mask(batch, arch)
        assert np.array_equal(mask, direct)
        prefix = np.arange(arch.num_layers) < deepest_cut(batch, arch)[..., None]
        assert np.array_equal(mask, prefix)


class TestKernelConsistency:
    """Every derived quantity agrees with ``round_terms`` on random instances."""

    @staticmethod
    def _instance(rng, slack=(1.0, 1.5)):
        n_layers = int(rng.integers(2, 7))
        rows = [
            f"L{j},{rng.uniform(0, 2)},{rng.uniform(0, 50)},{rng.uniform(0, 0.5)}"
            for j in range(n_layers)
        ]
        rows[-1] = f"L{n_layers - 1},{rng.uniform(0, 2)},{rng.uniform(0, 50)},0"
        arch = load_architecture(_doc(rows), bwd_multiplier=float(rng.uniform(0, 3)))
        model = arch.model_bytes_by_cut
        mem = model + arch.cum_act_bytes_by_cut
        users = []
        for _ in range(int(rng.integers(1, 7))):
            # limits around a random cut's needs: with slack >= 1 every user
            # holds at least the first cut, and some fewer than all L
            storage = model[int(rng.integers(0, n_layers))] * rng.uniform(*slack)
            memory = mem[int(rng.integers(0, n_layers))] * rng.uniform(*slack)
            users.append((
                float(rng.choice([0.0, 50.0, 200.0, 800.0])),
                float(rng.uniform(0.1, 5.0)) * 1e12,
                *(float(r) for r in rng.uniform(1e3, 1e6, size=2)),
                int(rng.integers(0, 9)),
                float(storage) if rng.random() < 0.5 else np.inf,
                float(memory) if rng.random() < 0.5 else np.inf,
            ))
        # epochs 0 lies below the checked range, so the batch is built as is
        columns = np.array(users, dtype=float).T
        return arch, UserBatch(10 + np.arange(len(users)), *columns)

    def test_per_user_cuts_match_every_cut_matrix_bit_for_bit(self):
        rng = np.random.default_rng(101)
        for _ in range(30):
            arch, batch = self._instance(rng)
            mask = feasibility_mask(batch, arch)
            cuts = np.array([rng.choice(np.flatnonzero(row)) + 1 for row in mask])
            compute = rng.uniform(1e11, 1e13, size=len(batch))
            t_agg = float(rng.uniform(0, 3))
            matrix = round_terms(batch, arch, None, compute, t_agg)
            per_user = round_terms(batch, arch, cuts, compute, t_agg)
            rows = np.arange(len(batch))
            for part in ("t_up", "t_down", "t_c", "t_b", "t_C", "t_B",
                         "epoch", "total", "communication"):
                at_cut = getattr(matrix, part)[rows, cuts - 1]
                assert np.array_equal(at_cut, getattr(per_user, part)), part

    def test_demand_terms_rebuild_the_objective(self):
        rng = np.random.default_rng(103)
        for _ in range(30):
            arch, batch = self._instance(rng)
            mask = feasibility_mask(batch, arch)
            cuts = [int(rng.choice(np.flatnonzero(row))) + 1 for row in mask]
            compute = rng.uniform(1e11, 1e13, size=len(batch))
            cfg = OptimizerConfig(t_agg=float(rng.uniform(0, 3)))
            terms = round_terms(batch, arch, cuts, compute, cfg.t_agg)
            for epoch_objective, expected in ((False, terms.total), (True, terms.epoch)):
                cfg_ = OptimizerConfig(t_agg=cfg.t_agg, epoch_objective=epoch_objective)
                a, b = server_demand_terms(batch, cuts, arch, cfg_)
                np.testing.assert_allclose(b + a / compute, expected, rtol=1e-12, atol=0)

    def test_default_fixed_cut_is_first_all_feasible_column(self):
        rng = np.random.default_rng(107)
        outcomes = set()
        for _ in range(40):
            # slack below 1 leaves some users without even the first cut
            arch, batch = self._instance(rng, slack=(0.5, 1.5))
            shared = feasibility_mask(batch, arch).all(axis=0)
            outcomes.add(bool(shared.any()))
            if shared.any():
                assert default_fixed_cut(batch, arch) == np.flatnonzero(shared)[0] + 1
            else:
                with pytest.raises(InfeasibleUserError):
                    default_fixed_cut(batch, arch)
        assert outcomes == {True, False}
