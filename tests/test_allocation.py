import io
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from esfl import (
    InfeasibleUserError,
    LinkRates,
    OptimizerConfig,
    UserBatch,
    UserProfile,
    alternate,
    brute_force_joint,
    equalize_min_max,
    feasibility_mask,
    load_architecture,
    load_builtin,
    plan_rows,
    preset_scenarios,
    round_terms,
    sample_rounds,
    server_demand_terms,
    sfl_round_time,
)
from esfl import allocation
from esfl.simulation import sample_population_data


def _doc(rows):
    return io.StringIO("layer,params,fwd_flops,activation\n" + "\n".join(rows) + "\n")


def _user(uid=0, n=500.0, tflops=1.3, kbps=10.0, epochs=5, **kw):
    return UserProfile(
        user_id=uid,
        n_samples=n,
        compute_flops=tflops * 1e12,
        rates=LinkRates(up=kbps * 1024.0, down=kbps * 1024.0),
        epochs=epochs,
        **kw,
    )


def _feasible_cuts(user, arch):
    """The user's feasible 1-based cuts, from the planner's feasibility mask."""
    return (np.flatnonzero(feasibility_mask([user], arch)[0]) + 1).tolist()


def _best_cut(user, arch, server_flops, cfg=None):
    """One cut pass on a single user at the given server share."""
    cfg = cfg or OptimizerConfig()
    batch = UserBatch.of([user])
    mask = feasibility_mask(batch, arch, cfg.batch_size)
    cuts, _ = allocation._cut_pass(batch, arch, server_flops, cfg, mask)
    return int(cuts[0])


@pytest.fixture(scope="module")
def vgg19():
    return load_builtin("vgg19")


def _random_users(rng, count, comm=(5, 10, 20, 35), comp=(0.65, 1.3, 2.6, 4.55),
                  data=(200, 400, 600, 800)):
    return [
        _user(
            uid=i,
            n=float(rng.choice(data)),
            tflops=float(rng.choice(comp)),
            kbps=float(rng.choice(comm)),
        )
        for i in range(count)
    ]


class TestFeasibleCuts:
    def test_unconstrained_user_gets_all_layers(self, vgg19):
        u = _user()
        assert _feasible_cuts(u, vgg19) == list(range(1, 21))

    def test_storage_below_first_layer_is_infeasible(self, vgg19):
        u = _user(storage_bytes=vgg19.model_bytes_by_cut[0] / 2)
        assert _feasible_cuts(u, vgg19) == []
        with pytest.raises(InfeasibleUserError):
            plan_rows(UserBatch.of([u]).rows(None), vgg19, 130e12)

    def test_boundary_storage_is_inclusive(self, vgg19):
        u = _user(storage_bytes=vgg19.model_bytes_by_cut[2])
        assert _feasible_cuts(u, vgg19) == [1, 2, 3]


class TestBestCut:
    def test_huge_device_compute_prefers_local_when_no_comm_advantage(self):
        # constant activation at every cut: splitting saves no traffic, so
        # with a fast device and a slow server the full-local cut wins
        arch = load_architecture(_doc([
            "A,0.001,10,0.05", "B,0.001,10,0.05", "C,0.001,10,0.05",
        ]))
        u = _user(tflops=1e6, kbps=10.0)
        assert _best_cut(u, arch, server_flops=1e9) == 3

    def test_rich_server_and_links_prefer_first_layer(self, vgg19):
        u = _user(tflops=1.3, kbps=1e12)
        assert _best_cut(u, vgg19, server_flops=1e30) == 1

    def test_vgg19_scan_matches_direct_evaluation(self, vgg19):
        # independent oracle: evaluate the round time of all 20 cuts with a
        # hand-written formula and take the argmin
        u = _user(n=500, tflops=1.3, kbps=10.0, epochs=5)
        c_srv = 13e12
        d = vgg19.total_compute_per_sample
        best_val, best_l = math.inf, None
        for l in range(1, 21):
            user_flops = vgg19.user_flops_by_cut[l - 1]
            act_bytes = vgg19.act_bytes_by_cut[l - 1]
            model_bytes = vgg19.model_bytes_by_cut[l - 1]
            epoch = (user_flops * 500 / u.compute_flops
                     + act_bytes * 500 / u.rates.up
                     + ((d - user_flops) * 500 / c_srv if d > user_flops else 0.0)
                     + act_bytes * 500 / u.rates.down)
            total = model_bytes / u.rates.up + model_bytes / u.rates.down + 5 * epoch
            if total < best_val:
                best_val, best_l = total, l
        assert _best_cut(u, vgg19, c_srv) == best_l

    def test_tie_breaks_to_smaller_index(self):
        # layer B adds nothing (no params, no compute, same activation), so
        # cuts 1 and 2 price identically; cut 3 loses on activation traffic
        arch = load_architecture(_doc(["A,0.1,10,0.05", "B,0,0,0.05", "C,0.1,0.1,0.2"]))
        u = _user()
        times = round_terms(UserBatch.of([u]), arch, None, np.array([1e12])).total[0]
        assert times[0] == times[1] < times[2]
        assert _best_cut(u, arch, server_flops=1e12) == 1

    def test_zero_server_compute_forces_local(self, vgg19):
        u = _user()
        assert _best_cut(u, vgg19, server_flops=0.0) == vgg19.num_layers


class TestEqualize:
    def test_symmetric_pair(self):
        c, k = equalize_min_max(np.array([10.0, 10.0]), np.zeros(2), 2.0)
        assert c == pytest.approx([1.0, 1.0], rel=1e-9)
        assert k == pytest.approx(10.0, rel=1e-9)

    def test_proportional_closed_form(self):
        # sum a_i / K = C_total with equal b -> K = 1, C = a
        c, k = equalize_min_max(np.array([1.0, 2.0, 3.0]), np.zeros(3), 6.0)
        assert c == pytest.approx([1.0, 2.0, 3.0], rel=1e-9)
        assert k == pytest.approx(1.0, rel=1e-9)

    def test_no_server_work(self):
        c, k = equalize_min_max(np.array([0.0]), np.array([7.0]), 5.0)
        assert c[0] == 0.0
        assert k == 7.0

    def test_mixed_idle_user_with_large_fixed_time(self):
        # the idle user's fixed time dominates; budget still fully spent
        a = np.array([4.0, 0.0])
        b = np.array([1.0, 50.0])
        c, k = equalize_min_max(a, b, 2.0)
        assert k == 50.0
        assert c[1] == 0.0
        assert c.sum() == pytest.approx(2.0, rel=1e-9)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            equalize_min_max(np.array([1.0]), np.array([0.0]), 0.0)
        with pytest.raises(ValueError):
            equalize_min_max(np.array([-1.0]), np.array([0.0]), 1.0)

    def test_saturation_and_equalization_random(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = int(rng.integers(2, 8))
            a = rng.uniform(0.5, 5.0, size=m)
            b = rng.uniform(0.0, 2.0, size=m)
            c_total = float(rng.uniform(1.0, 10.0))
            c, k = equalize_min_max(a, b, c_total)
            assert abs(c.sum() - c_total) <= 1e-6 * c_total
            times = b + a / c
            assert np.max(np.abs(times - k)) <= 1e-6 * k


    def test_rows_solve_like_each_row_alone(self):
        rng = np.random.default_rng(19)
        a = rng.uniform(0.5, 5.0, size=(6, 5)) * (rng.random((6, 5)) < 0.8)
        a[2] = 0.0  # a row with no funded user
        b = rng.uniform(0.0, 2.0, size=(6, 5))
        hint = rng.uniform(1.0, 20.0, size=6)
        c, k = equalize_min_max(a, b, 3.0, upper_hint=hint)
        assert c.shape == (6, 5) and k.shape == (6,)
        for r in range(6):
            c_r, k_r = equalize_min_max(a[r], b[r], 3.0, upper_hint=hint[r])
            np.testing.assert_allclose(c[r], c_r, rtol=1e-12, atol=0)
            assert k[r] == pytest.approx(k_r, rel=1e-12)
        assert np.all(c[2] == 0.0) and k[2] == b[2].max()


_SERVER_WORK = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))


class TestResourcePassProperties:
    """The Newton resource pass on random instances (seeded, bounded)."""

    @seed(20240)
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.tuples(_SERVER_WORK, st.floats(0.0, 1e3), st.floats(0.01, 1.0)),
                 min_size=1, max_size=8),
        st.floats(1e-2, 1e2),
    )
    def test_budget_hint_and_common_level(self, users, c_total):
        a, b, weight = (np.array(x) for x in zip(*users))
        active = a > 0
        # any split of the budget among the funded users is feasible, so its
        # objective is an attainable upper hint
        split = np.where(active, c_total * weight / weight[active].sum(), 0.0) \
            if active.any() else np.zeros_like(a)
        with np.errstate(divide="ignore"):
            hint = float(np.max(np.where(active, b + a / np.where(active, split, 1.0), b)))
        tol = 1e-9
        compute, level, steps = allocation._equalize(a, b, c_total, tol, 200, hint)
        assert np.all(compute >= 0) and np.all(compute[~active] == 0)
        assert compute.sum() <= c_total * (1 + 1e-12)
        assert level <= hint
        assert steps <= 200
        if active.any():
            assert compute.sum() >= c_total * (1 - 1e-6)  # budget spent
            times = b[active] + a[active] / compute[active]
            top = max(times.max(), b[~active].max(initial=0.0))
            assert np.all(times >= times.max() * (1 - 1e-12))  # one common level
            # the level is the achieved max, at most a solver resolution above
            # a tight hint
            slack = tol * (times.max() - b[active].max()) + 1e-12 * top
            assert top - slack <= level <= top * (1 + 1e-12)
        else:
            assert level == b.max()

    def test_newton_steps_on_the_presets(self, vgg19):
        # bisection needs about 31 demand evaluations per resource pass
        worst = 0
        for spec in preset_scenarios().values():
            rng = np.random.default_rng(spec.seed)
            batch = sample_rounds(spec, rng, sample_population_data(spec, rng), 100)
            plan = plan_rows(batch, vgg19, spec.server_tflops * 1e12)
            worst = max(worst, int(plan.resource_steps.max()))
        assert 1 <= worst <= 10


_LAYER = st.tuples(st.floats(0.005, 0.5), st.floats(1.0, 40.0), st.floats(0.001, 0.08))
# samples, device FLOP/s, up and down rates (B/s), and storage as a share of
# the way from the first cut's model bytes to the whole model's (>= 1: unlimited)
_JOINT_USER = st.tuples(st.sampled_from([200.0, 400.0, 600.0, 800.0]),
                        st.floats(1e9, 2e10), st.floats(1e5, 2e6), st.floats(1e5, 2e6),
                        st.floats(0.0, 1.5))


class TestAlternateProperties:
    """The alternation on tiny random instances (seeded, bounded)."""

    @seed(20246)
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(_LAYER, min_size=2, max_size=5),
        st.lists(_JOINT_USER, min_size=1, max_size=3),
        st.floats(1e9, 2e11),
        st.booleans(),
        st.sampled_from([0.0, 2.5]),
    )
    def test_admissible_never_beats_the_oracle_and_descends(
            self, layers, users, c_total, epoch_objective, t_agg):
        arch = load_architecture(_doc([f"L{j},{p!r},{f!r},{a!r}"
                                       for j, (p, f, a) in enumerate(layers)]))
        first, whole = arch.model_bytes_by_cut[0], arch.model_bytes_by_cut[-1]
        users = [
            UserProfile(i, n, flops, LinkRates(up, down), epochs=5,
                        storage_bytes=first + share * (whole - first) if share < 1 else math.inf)
            for i, (n, flops, up, down, share) in enumerate(users)
        ]
        cfg = OptimizerConfig(epoch_objective=epoch_objective, t_agg=t_agg)
        result = alternate(users, arch, c_total, cfg)
        alloc = result.allocation
        for user, cut in zip(users, alloc.cuts):
            assert cut in _feasible_cuts(user, arch)
        assert min(alloc.server_compute) >= 0
        assert sum(alloc.server_compute) <= c_total * (1 + 1e-12)
        exact = brute_force_joint(users, arch, c_total, cfg)
        assert alloc.objective / exact.objective >= 1 - 1e-9
        objectives = [rec.objective for rec in result.trace]
        assert all(later <= earlier * (1 + 1e-12)
                   for earlier, later in zip(objectives, objectives[1:]))


class TestAllocateServerCompute:
    def test_users_cut_at_last_layer_get_nothing(self, vgg19):
        users = [_user(uid=0), _user(uid=1)]
        L = vgg19.num_layers
        c, k = equalize_min_max(*server_demand_terms(users, [L, 5], vgg19), 130e12)
        assert c[0] == 0.0
        assert c[1] == pytest.approx(130e12, rel=1e-6)

    def test_demand_terms_match_round_structure(self, vgg19):
        u = _user()
        cfg = OptimizerConfig(t_agg=0.5)
        a, b = server_demand_terms([u], [4], vgg19, cfg)
        srv = 2e12
        reconstructed = b[0] + a[0] / srv
        assert reconstructed == pytest.approx(
            round_terms(UserBatch.of([u]), vgg19, [4], srv, t_agg=0.5).total[0],
            rel=1e-12,
        )

    def test_epoch_objective_drops_model_transfer(self, vgg19):
        u = _user()
        a_full, b_full = server_demand_terms([u], [4], vgg19, OptimizerConfig())
        a_ep, b_ep = server_demand_terms(
            [u], [4], vgg19, OptimizerConfig(epoch_objective=True)
        )
        assert a_full[0] == pytest.approx(u.epochs * a_ep[0], rel=1e-12)
        model_term = 2 * vgg19.model_bytes_by_cut[3] / u.rates.up
        assert b_full[0] == pytest.approx(u.epochs * b_ep[0] + model_term, rel=1e-12)


class TestAlternate:
    def test_single_user_fixed_point(self, vgg19):
        res = alternate([_user()], vgg19, 130e12)
        assert res.converged
        assert res.iterations <= 2
        assert res.allocation.cuts[0] == _best_cut(_user(), vgg19, 130e12)

    def test_identical_users_stay_symmetric(self, vgg19):
        users = [_user(uid=i) for i in range(4)]
        res = alternate(users, vgg19, 130e12)
        assert len(set(res.allocation.cuts)) == 1
        c = res.allocation.server_compute
        assert max(c) - min(c) <= 1e-9 * max(max(c), 1.0)

    def test_deterministic(self, vgg19):
        rng = np.random.default_rng(3)
        users = _random_users(rng, 10)
        r1 = alternate(users, vgg19, 130e12)
        r2 = alternate(users, vgg19, 130e12)
        assert r1 == r2

    def test_monotone_objective_trace(self, vgg19):
        rng = np.random.default_rng(23)
        for _ in range(10):
            users = _random_users(rng, 10)
            res = alternate(users, vgg19, 130e12)
            objs = [rec.objective for rec in res.trace]
            for earlier, later in zip(objs, objs[1:]):
                assert later <= earlier * (1 + 1e-12)

    def test_budget_saturation(self, vgg19):
        rng = np.random.default_rng(29)
        users = _random_users(rng, 10)
        res = alternate(users, vgg19, 130e12)
        total = sum(res.allocation.server_compute)
        if any(c > 0 for c in res.allocation.server_compute):
            assert abs(total - 130e12) <= 1e-6 * 130e12

    def test_iteration_cap_sets_warning_flag(self, vgg19):
        rng = np.random.default_rng(31)
        users = _random_users(rng, 10)
        res = alternate(users, vgg19, 130e12, OptimizerConfig(max_iters=1))
        assert res.iterations == 1
        assert not res.converged

    def test_infeasible_user_rejected(self, vgg19):
        bad = _user(storage_bytes=1.0)
        with pytest.raises(InfeasibleUserError):
            alternate([bad, _user(uid=1)], vgg19, 130e12)

    def test_binding_storage_limits_respected(self, vgg19):
        # one user can hold three layers, another eight; the optimum must
        # stay inside each feasible set and still beat any shared fixed cut
        # the constrained users could all take
        users = [
            _user(uid=0, storage_bytes=vgg19.model_bytes_by_cut[2]),
            _user(uid=1, kbps=25, storage_bytes=vgg19.model_bytes_by_cut[7]),
            _user(uid=2, tflops=3.25),
        ]
        res = alternate(users, vgg19, 130e12)
        assert res.allocation.cuts[0] <= 3
        assert res.allocation.cuts[1] <= 8
        for fixed_l in (1, 2, 3):
            assert res.allocation.objective <= sfl_round_time(
                users, vgg19, fixed_l, 130e12
            )[0] * (1 + 1e-12)

    def test_dead_link_user_fails_cleanly(self, vgg19):
        from esfl import AllocationError

        dead = UserProfile(user_id=0, n_samples=500.0, compute_flops=1e12,
                           rates=LinkRates(0.0, 0.0), epochs=5)
        with pytest.raises(AllocationError):
            alternate([dead, _user(uid=1)], vgg19, 130e12)

    def test_dominates_every_fixed_equal_split_policy(self, vgg19):
        # construction guarantee: the first cut pass already minimizes over
        # each user's whole feasible set at the equal split
        rng = np.random.default_rng(37)
        for _ in range(5):
            users = _random_users(rng, 8)
            res = alternate(users, vgg19, 130e12)
            for fixed_l in (1, 5, 12, 16, 20):
                assert res.allocation.objective <= sfl_round_time(
                    users, vgg19, fixed_l, 130e12
                )[0] * (1 + 1e-12)


class TestPlanRows:
    def _batch(self, rounds=12, spec_name="LH"):
        spec = preset_scenarios()[spec_name]
        rng = np.random.default_rng(5)
        return sample_rounds(spec, rng, sample_population_data(spec, rng), rounds)

    @pytest.mark.parametrize("cfg", [
        OptimizerConfig(),
        OptimizerConfig(max_iters=2),
        OptimizerConfig(epoch_objective=True, t_agg=2.5),
    ])
    def test_rows_plan_like_alternate_on_each_row(self, vgg19, cfg):
        # rows stall at different passes and are frozen while others go on
        batch = self._batch()
        plan = plan_rows(batch, vgg19, 130e12, cfg)
        if cfg == OptimizerConfig():
            assert len(set(plan.iterations.tolist())) > 1
        for r in range(batch.shape[0]):
            alone = alternate(batch.rows(r), vgg19, 130e12, cfg)
            assert plan.result(r) == alone
            assert len(alone.trace) == alone.iterations <= cfg.max_iters

    def test_chunking_does_not_change_the_plan(self, vgg19, monkeypatch):
        batch = self._batch()
        whole = plan_rows(batch, vgg19, 130e12)
        # one row per chunk, then chunks that split the rows unevenly
        for elements in (1, 5 * len(batch) * vgg19.num_layers):
            monkeypatch.setattr(allocation, "MAX_CHUNK_ELEMENTS", elements)
            chunked = plan_rows(batch, vgg19, 130e12)
            for field in ("cuts", "server_compute", "objective", "iterations",
                          "converged", "resource_steps"):
                assert np.array_equal(getattr(whole, field), getattr(chunked, field))
            assert [chunked.trace(r) for r in range(12)] == \
                [whole.trace(r) for r in range(12)]


class TestBruteForce:
    def _toy_arch(self):
        return load_architecture(_doc([
            "A,0.02,8,0.04", "B,0.03,12,0.02", "C,0.05,9,0.015", "D,0.3,4,0.001",
        ]))

    def test_refuses_large_instances(self, vgg19):
        with pytest.raises(ValueError):
            brute_force_joint([_user()], vgg19, 130e12)
        arch = self._toy_arch()
        users = [_user(uid=i) for i in range(4)]
        with pytest.raises(ValueError):
            brute_force_joint(users, arch, 1e12)

    def test_single_user_matches_alternate(self):
        arch = self._toy_arch()
        u = _user(n=100, tflops=0.002, kbps=200)
        bf = brute_force_joint([u], arch, 5e9)
        alt = alternate([u], arch, 5e9)
        assert bf.cuts == alt.allocation.cuts
        assert alt.allocation.objective == pytest.approx(bf.objective, rel=1e-9)

    def test_identical_pair_symmetric_optimum(self):
        arch = load_architecture(_doc(["A,0.02,8,0.04", "B,0.03,12,0.02", "C,0.05,9,0.0"]))
        users = [_user(uid=i, n=100, tflops=0.002, kbps=200) for i in range(2)]
        bf = brute_force_joint(users, arch, 5e9)
        assert bf.cuts[0] == bf.cuts[1]
        assert bf.server_compute[0] == pytest.approx(bf.server_compute[1], rel=1e-9)

    def test_oracle_dominates_heuristic(self):
        arch = self._toy_arch()
        rng = np.random.default_rng(41)
        for _ in range(10):
            users = [
                _user(uid=i, n=float(rng.integers(50, 300)),
                      tflops=float(rng.uniform(0.001, 0.01)),
                      kbps=float(rng.uniform(50, 500)))
                for i in range(2)
            ]
            bf = brute_force_joint(users, arch, 5e9)
            alt = alternate(users, arch, 5e9)
            assert alt.allocation.objective >= bf.objective * (1 - 1e-9)
