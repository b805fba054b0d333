import dataclasses
import io
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from esfl import (
    AllocationError,
    ConfigError,
    InfeasibleUserError,
    OptimizerConfig,
    UserBatch,
    deepest_cut,
    equalize_min_max,
    exact_level,
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
from esfl import allocation, timing
from esfl.errors import EsflError, id_list
from esfl.simulation import sample_population_data


def _doc(rows):
    return io.StringIO("layer,params,fwd_flops,activation\n" + "\n".join(rows) + "\n")


def _users(n=500.0, tflops=1.3, kbps=10.0, epochs=5, uid=None, **limits):
    """A checked batch; each argument holds one value for every user, or
    one per user."""
    rate = np.multiply(kbps, 1024.0)
    return UserBatch.checked(n, np.multiply(tflops, 1e12), rate, rate, epochs,
                             user_ids=uid, **limits)


def _feasible_cuts(batch, arch):
    """The first user's feasible 1-based cuts, from the planner's feasibility mask."""
    return (np.flatnonzero(feasibility_mask(batch, arch)[0]) + 1).tolist()


_PLAN_FIELDS = ("cuts", "server_compute", "objective", "iterations", "converged")


def _row_trace(plan, r):
    """Row r's passes, in order: (iteration, objective, cuts, server compute,
    demand evaluations) each, as Python values."""
    trace = []
    for p in plan.passes:
        k = np.searchsorted(p.rows, r)
        if k < len(p.rows) and p.rows[k] == r:
            trace.append((p.iteration, p.objective[k].item(), p.cuts[k].tolist(),
                          p.server_compute[k].tolist(), p.steps[k].item()))
    return trace


def _row(plan, r):
    """Row r of a plan, its results and its trace, as Python values."""
    return {f: getattr(plan, f)[r].tolist() for f in _PLAN_FIELDS}, _row_trace(plan, r)


def _enumerated_optimum(batch, arch, c_total, cfg=None):
    """The joint optimum and its first cut tuple, by enumerating every
    feasible cut tuple with its exact resource pass: O(L^S), the reference
    for :func:`exact_level` on tiny instances."""
    mask = feasibility_mask(batch, arch)
    best = (math.inf, None)
    for cuts in itertools.product(*[(np.flatnonzero(row) + 1).tolist() for row in mask]):
        objective = _attained(batch, arch, c_total, cuts, cfg)
        if objective < best[0]:
            best = (objective, cuts)
    return best


def _attained(batch, arch, c_total, cuts, cfg=None):
    """The least objective the cuts ``cuts`` attain: their exact resource pass."""
    a, b = server_demand_terms(batch, cuts, arch, cfg)
    return equalize_min_max(a, b, c_total)[1]


def _cut_pass(batch, arch, cfg):
    """The planner's cut pass over an (R, S) batch, every user its own kind."""
    deepest = deepest_cut(batch, arch)
    return allocation._CutPass.of(batch, _each_own_kind(batch, deepest), deepest, arch, cfg)


def _best_cut(batch, arch, server_flops, cfg=None):
    """One cut pass on a single user at the given server share."""
    rows = batch.rows(None)
    cuts, _ = _cut_pass(rows, arch, cfg or OptimizerConfig())(
        np.full(rows.shape, float(server_flops)))
    return int(cuts[0, 0])


@pytest.fixture(scope="module")
def vgg19():
    return load_builtin("vgg19")


def _random_users(rng, count, comm=(5, 10, 20, 35), comp=(0.65, 1.3, 2.6, 4.55),
                  data=(200, 400, 600, 800)):
    draws = [(float(rng.choice(data)), float(rng.choice(comp)), float(rng.choice(comm)))
             for _ in range(count)]
    n, tflops, kbps = zip(*draws)
    return _users(n, tflops, kbps)


class TestFeasibleCuts:
    def test_unconstrained_user_gets_all_layers(self, vgg19):
        u = _users()
        assert _feasible_cuts(u, vgg19) == list(range(1, 21))

    def test_storage_below_first_layer_is_infeasible(self, vgg19):
        u = _users(storage_bytes=vgg19.model_bytes_by_cut[0] / 2)
        assert _feasible_cuts(u, vgg19) == []
        with pytest.raises(InfeasibleUserError):
            plan_rows(u.rows(None), vgg19, 130e12)

    def test_boundary_storage_is_inclusive(self, vgg19):
        u = _users(storage_bytes=vgg19.model_bytes_by_cut[2])
        assert _feasible_cuts(u, vgg19) == [1, 2, 3]


class TestBestCut:
    def test_huge_device_compute_prefers_local_when_no_comm_advantage(self):
        # constant activation at every cut: splitting saves no traffic, so
        # with a fast device and a slow server the full-local cut wins
        arch = load_architecture(_doc([
            "A,0.001,10,0.05", "B,0.001,10,0.05", "C,0.001,10,0.05",
        ]))
        u = _users(tflops=1e6, kbps=10.0)
        assert _best_cut(u, arch, server_flops=1e9) == 3

    def test_rich_server_and_links_prefer_first_layer(self, vgg19):
        u = _users(tflops=1.3, kbps=1e12)
        assert _best_cut(u, vgg19, server_flops=1e30) == 1

    def test_vgg19_scan_matches_direct_evaluation(self, vgg19):
        # independent oracle: evaluate the round time of all 20 cuts with a
        # hand-written formula and take the argmin
        u = _users(n=500, tflops=1.3, kbps=10.0, epochs=5)
        c_srv = 13e12
        d = vgg19.total_compute_per_sample
        best_val, best_l = math.inf, None
        for l in range(1, 21):
            user_flops = vgg19.user_flops_by_cut[l - 1]
            act_bytes = vgg19.act_bytes_by_cut[l - 1]
            model_bytes = vgg19.model_bytes_by_cut[l - 1]
            epoch = (user_flops * 500 / u.compute_flops[0]
                     + act_bytes * 500 / u.up[0]
                     + ((d - user_flops) * 500 / c_srv if d > user_flops else 0.0)
                     + act_bytes * 500 / u.down[0])
            total = model_bytes / u.up[0] + model_bytes / u.down[0] + 5 * epoch
            if total < best_val:
                best_val, best_l = total, l
        assert _best_cut(u, vgg19, c_srv) == best_l

    def test_tie_breaks_to_smaller_index(self):
        # layer B adds nothing (no params, no compute, same activation), so
        # cuts 1 and 2 price identically; cut 3 loses on activation traffic
        arch = load_architecture(_doc(["A,0.1,10,0.05", "B,0,0,0.05", "C,0.1,0.1,0.2"]))
        u = _users()
        times = round_terms(u, arch, None, np.array([1e12])).total[0]
        assert times[0] == times[1] < times[2]
        assert _best_cut(u, arch, server_flops=1e12) == 1

    def test_zero_server_compute_forces_local(self, vgg19):
        u = _users()
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

    def test_terms_beyond_the_latency_models_range_are_refused(self):
        # a_sum / c_total would overflow at the bottom of the budget's range
        with pytest.raises(ValueError, match=r"^demand terms a must be 0 or within "
                                             r"1e-60\.\.1e\+100, not 1e\+300$"):
            equalize_min_max(np.array([1e300, 1e300]), np.array([0.0, 0.5]), 1e-20)
        with pytest.raises(ValueError, match=r"^demand terms a .*, not 1e-61$"):
            equalize_min_max(np.array([1.0, 1e-61]), np.zeros(2), 1.0)
        with pytest.raises(ValueError, match=r"^demand terms b must be at most 1e\+150, "
                                             r"not 1e\+200$"):
            equalize_min_max(np.ones(2), np.array([0.0, 1e200]), 1.0)
        # at the edges of the ranges, and of the budget's, no step overflows
        a, b = np.array([1e-60, 1e100, 0.0]), np.array([1e150, 0.0, 1e150])
        with np.errstate(all="raise", under="ignore"):
            for c_total in (1e-20, 1e20):
                compute, level = equalize_min_max(a, b, c_total)
                assert np.isfinite(compute).all() and np.isfinite(level)

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

    @seed(20247)
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_budget_near_the_float_maximum_solves_like_the_unscaled_one(self, data):
        # Scaling a and the budget by one power of two k leaves the level
        # alone and scales the compute by k. A budget near the float maximum
        # lies far above the magnitude range and is refused; scaled to the
        # top of the range, the budget solves like the unscaled one, with
        # no step overflowing.
        m = data.draw(st.integers(2, 40))
        a = np.array(data.draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
                                        min_size=m, max_size=m)))
        b = np.array(data.draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                                        min_size=m, max_size=m)))
        c_total = 0.5 * data.draw(st.floats(1.0, 100.0))
        with pytest.raises(ConfigError, match=r"^c_total must be within 1e-20\.\.1e20 "):
            equalize_min_max(a * 2.0 ** 1000, b, c_total * 2.0 ** 1000)
        k = 2.0 ** (math.frexp(1e20)[1] - 1 - math.frexp(c_total)[1])   # c_total * k < 1e20
        c, level = equalize_min_max(a, b, c_total)
        with np.errstate(all="raise", under="ignore"):   # a subnormal b may underflow
            c_k, level_k = equalize_min_max(a * k, b, c_total * k)
        assert level_k == pytest.approx(level, rel=1e-9)
        np.testing.assert_allclose(c_k / k, c, rtol=0, atol=1e-6 * c.max(initial=0.0))

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
        tol = allocation.BISECTION_TOLERANCE
        compute, steps, levels = allocation._equalize(a, b, c_total)
        level = allocation._objective(levels, hint)
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
            worst = max(worst, *(int(p.steps.max()) for p in plan.passes))
        assert 1 <= worst <= 10


_LAYER = st.tuples(st.floats(0.005, 0.5), st.floats(1.0, 40.0), st.floats(0.001, 0.08))
# samples, device FLOP/s, up and down rates (B/s), and storage as a share of
# the way from the first cut's model bytes to the whole model's (>= 1: unlimited)
_JOINT_USER = st.tuples(st.sampled_from([200.0, 400.0, 600.0, 800.0]),
                        st.floats(1e9, 2e10), st.floats(1e5, 2e6), st.floats(1e5, 2e6),
                        st.floats(0.0, 1.5))


def _joint_instance(layers, users):
    """The architecture and users that ``_LAYER`` and ``_JOINT_USER`` draws
    describe."""
    arch = load_architecture(_doc([f"L{j},{p!r},{f!r},{a!r}"
                                   for j, (p, f, a) in enumerate(layers)]))
    first, whole = arch.model_bytes_by_cut[0], arch.model_bytes_by_cut[-1]
    n, flops, up, down, share = (np.array(x) for x in zip(*users))
    return arch, UserBatch.checked(
        n, flops, up, down,
        storage_bytes=np.where(share < 1, first + share * (whole - first), math.inf))


_JOINT = (
    st.lists(_LAYER, min_size=2, max_size=5),
    st.lists(_JOINT_USER, min_size=1, max_size=3),
    st.floats(1e9, 2e11),
    st.booleans(),
    st.sampled_from([0.0, 2.5]),
)


class TestAlternateProperties:
    """The alternation on tiny random instances (seeded, bounded)."""

    @seed(20246)
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(*_JOINT)
    def test_admissible_never_beats_the_oracle_and_descends(
            self, layers, users, c_total, epoch_objective, t_agg):
        arch, users = _joint_instance(layers, users)
        cfg = OptimizerConfig(epoch_objective=epoch_objective, t_agg=t_agg)
        plan = plan_rows(users, arch, c_total, cfg)
        cuts, compute = plan.cuts[0], plan.server_compute[0]
        mask = feasibility_mask(users, arch)
        assert mask[np.arange(len(users)), cuts - 1].all()
        assert min(compute) >= 0
        assert sum(compute.tolist()) <= c_total * (1 + 1e-12)
        level, _ = exact_level(users, arch, c_total, cfg)
        assert plan.objective[0] / level[0] >= 1 - 1e-9
        objectives = [p.objective[0] for p in plan.passes]
        assert all(later <= earlier * (1 + 1e-12)
                   for earlier, later in zip(objectives, objectives[1:]))


class TestExactLevel:
    """The exact joint optimum against enumeration where it can run, and
    against the planner where it cannot."""

    @seed(20247)
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(*_JOINT)
    def test_matches_the_enumeration(self, layers, users, c_total, epoch_objective,
                                     t_agg):
        arch, users = _joint_instance(layers, users)
        cfg = OptimizerConfig(epoch_objective=epoch_objective, t_agg=t_agg)
        level, cuts = exact_level(users, arch, c_total, cfg)
        assert level.shape == (1,) and cuts.shape == (1, len(users))
        optimum, _ = _enumerated_optimum(users, arch, c_total, cfg)
        assert level[0] == pytest.approx(optimum, rel=1e-9)
        assert feasibility_mask(users, arch)[np.arange(len(users)), cuts[0] - 1].all()
        assert _attained(users, arch, c_total, cuts[0], cfg) <= level[0] * (1 + 1e-9)

    def test_plan_never_beats_it_on_the_presets(self, vgg19):
        for spec in preset_scenarios().values():
            rng = np.random.default_rng(spec.seed)
            batch = sample_rounds(spec, rng, sample_population_data(spec, rng), 100)
            c_total = spec.server_tflops * 1e12
            level, cuts = exact_level(batch, vgg19, c_total)
            assert level.shape == (100,) and cuts.shape == batch.shape
            assert np.all(plan_rows(batch, vgg19, c_total).objective
                          >= level * (1 - 1e-9)), spec.name
            for r in range(0, 100, 25):
                assert (_attained(batch.rows(r), vgg19, c_total, cuts[r])
                        <= level[r] * (1 + 1e-9))

    def test_a_budget_that_rounds_the_server_time_away(self, vgg19):
        # a budget so large that every server time is below the rounding of
        # the server-free times lies above the magnitude range: refused
        users = _random_users(np.random.default_rng(8), 6)
        for fn in (plan_rows, exact_level):
            with pytest.raises(ConfigError, match=r"^c_total must be within "
                                                  r"1e-20\.\.1e20 FLOP/s, not 1e\+300$"):
                fn(users, vgg19, 1e300)
        # at the top of the range the server time still counts, and the
        # level lies between the fastest server-free time and the plan's
        level, cuts = exact_level(users, vgg19, 1e20)
        free = server_demand_terms(users, None, vgg19)[1]
        assert free.min(axis=-1).max() <= level[0]
        assert level[0] <= plan_rows(users, vgg19, 1e20).objective[0] * (1 + 1e-9)
        assert _attained(users, vgg19, 1e20, cuts[0]) <= level[0] * (1 + 1e-9)

    def test_rows_solve_like_each_row(self, vgg19):
        spec = preset_scenarios()["LH"]
        rng = np.random.default_rng(3)
        batch = sample_rounds(spec, rng, sample_population_data(spec, rng), 6)
        level, cuts = exact_level(batch, vgg19, 50e12)
        for r in range(6):
            one_level, one_cuts = exact_level(batch.rows(r), vgg19, 50e12)
            assert (one_level[0], one_cuts[0].tolist()) == (level[r], cuts[r].tolist())

    @pytest.mark.parametrize("users, c_total", [
        (_users(uid=range(2), storage_bytes=[math.inf, 1.0]), 130e12),  # no feasible cut
        (dataclasses.replace(_users(uid=range(2)), epochs=np.array([5.0, 0.0])),
         130e12),                                                        # no epoch
        (_users(), math.inf),
        (_users(), 0.0),
        (_users(), 1e-320),                                     # below the range
        (_users(kbps=0.0), 130e12),                            # dead link
    ])
    def test_refuses_as_plan_rows_does(self, vgg19, users, c_total):
        with pytest.raises(Exception) as planned:
            plan_rows(users, vgg19, c_total)
        with pytest.raises(type(planned.value), match=re.escape(str(planned.value))):
            exact_level(users, vgg19, c_total)


# a dead (zero-rate) link one time in twenty
_RATE = st.tuples(st.sampled_from(range(20)), st.floats(1e5, 2e6)).map(
    lambda pick: 0.0 if pick[0] == 0 else pick[1])
# no server compute one time in ten, unlimited one time in ten
_SERVER = st.tuples(st.sampled_from(range(10)), st.floats(1e9, 2e11)).map(
    lambda pick: {0: 0.0, 1: math.inf}.get(pick[0], pick[1]))
# samples, device FLOP/s, up and down rates (B/s), epochs, storage and memory
# as shares of the way from the first cut's needs to the last's (>= 1:
# unlimited), and the server compute of two passes
_CUT_USER = st.tuples(st.sampled_from([0.0, 200.0, 800.0]), st.floats(1e9, 2e10),
                      _RATE, _RATE, st.integers(1, 5), st.floats(0.0, 1.5),
                      st.floats(0.0, 1.5), _SERVER, _SERVER)


class TestCachedCutPass:
    """The cut pass prices the server-independent terms once per plan; every
    pass must equal the masked argmin over the uncached ``round_terms``."""

    @seed(20247)
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(_LAYER, min_size=2, max_size=5),
        st.integers(1, 3).flatmap(lambda s: st.lists(
            st.lists(_CUT_USER, min_size=s, max_size=s), min_size=1, max_size=3)),
        st.booleans(),
        st.sampled_from([0.0, 2.5]),
    )
    def test_equals_the_uncached_argmin(self, layers, rows, epoch_objective, t_agg):
        arch = load_architecture(_doc([f"L{j},{p!r},{f!r},{a!r}"
                                       for j, (p, f, a) in enumerate(layers)]))
        n, flops, up, down, epochs, storage, memory, c1, c2 = (
            np.array(x, dtype=float) for x in zip(*(zip(*row) for row in rows)))
        model = arch.model_bytes_by_cut
        needs = model + arch.cum_act_bytes_by_cut

        def limit(share, need):
            return np.where(share < 1, need[0] + share * (need[-1] - need[0]), math.inf)

        ids = np.broadcast_to(np.arange(n.shape[1]), n.shape)
        batch = UserBatch(ids, n, flops, up, down, epochs,
                          limit(storage, model), limit(memory, needs))
        cfg = OptimizerConfig(epoch_objective=epoch_objective, t_agg=t_agg)
        mask = feasibility_mask(batch, arch)
        cut_pass = _cut_pass(batch, arch, cfg)

        def reference(compute):
            terms = round_terms(batch, arch, None, compute, t_agg)
            # a round moves the model at every cut, whatever the objective
            runnable = mask & np.isfinite(terms.t_up + terms.t_down)
            times = np.where(runnable, terms.epoch if epoch_objective else terms.total,
                             np.inf)
            return np.argmin(times, axis=-1) + 1, times.min(axis=-1)

        # one cache serves pass after pass
        for compute in (c1, c2, c1):
            cuts, best = reference(compute)
            if not np.isfinite(best).all():
                with pytest.raises(AllocationError, match="prices to infinity"):
                    cut_pass(compute)
                continue
            got_cuts, got = cut_pass(compute)
            assert np.array_equal(got_cuts, cuts)
            assert np.array_equal(got, best)

    @pytest.mark.parametrize("epoch_objective", [False, True])
    def test_never_holds_every_term_matrix_at_once(self, vgg19, epoch_objective):
        # a one-row plan of 10,000 users with varied links and some limits:
        # thousands of kinds, so the (N, L) matrices dwarf the (N,) columns
        rng = np.random.default_rng(20400)
        n = 10_000

        def limit(mb):
            return np.where(rng.random(n) < 0.3, rng.choice(mb, n) * 2.0**20, math.inf)

        batch = UserBatch.checked(
            rng.choice([200.0, 500.0, 800.0], n), rng.choice([0.65e12, 1.3e12, 2.6e12], n),
            rng.choice(np.geomspace(1e4, 1e6, 40), n), rng.choice(np.geomspace(1e4, 1e6, 40), n),
            1, limit([40.0, 80.0, 160.0]), limit([60.0, 120.0, 240.0]))
        batch, deepest = allocation._checked_rows(batch, vgg19, 130e12)
        kinds = allocation._kinds(batch, deepest)
        cfg = OptimizerConfig(epoch_objective=epoch_objective)
        tracemalloc.start()
        try:
            cut_pass = allocation._CutPass.of(batch, kinds, deepest, vgg19, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix = cut_pass.buffer.nbytes     # one (N, L) float64 array
        assert len(kinds.row) > 1_000
        # the five term matrices and the terms' sums come to ~6.4 matrices;
        # summing into new arrays while the terms are held comes to ~8.4,
        # about what the passes of ``plan_rows`` peak at
        assert peak <= 7 * matrix


class TestAllocateServerCompute:
    def test_users_cut_at_last_layer_get_nothing(self, vgg19):
        users = _users(uid=range(2))
        L = vgg19.num_layers
        c, k = equalize_min_max(*server_demand_terms(users, [L, 5], vgg19), 130e12)
        assert c[0] == 0.0
        assert c[1] == pytest.approx(130e12, rel=1e-6)

    def test_demand_terms_match_round_structure(self, vgg19):
        u = _users()
        cfg = OptimizerConfig(t_agg=0.5)
        a, b = server_demand_terms(u, [4], vgg19, cfg)
        srv = 2e12
        reconstructed = b[0] + a[0] / srv
        assert reconstructed == pytest.approx(
            round_terms(u, vgg19, [4], srv, t_agg=0.5).total[0],
            rel=1e-12,
        )

    def test_epoch_objective_drops_model_transfer(self, vgg19):
        u = _users()
        a_full, b_full = server_demand_terms(u, [4], vgg19, OptimizerConfig())
        a_ep, b_ep = server_demand_terms(
            u, [4], vgg19, OptimizerConfig(epoch_objective=True)
        )
        assert a_full[0] == pytest.approx(u.epochs[0] * a_ep[0], rel=1e-12)
        model_term = 2 * vgg19.model_bytes_by_cut[3] / u.up[0]
        assert b_full[0] == pytest.approx(u.epochs[0] * b_ep[0] + model_term, rel=1e-12)


class TestAlternate:
    def test_single_user_fixed_point(self, vgg19):
        plan = plan_rows(_users(), vgg19, 130e12)
        assert plan.converged[0]
        assert plan.iterations[0] <= 2
        assert plan.cuts[0, 0] == _best_cut(_users(), vgg19, 130e12)

    def test_identical_users_stay_symmetric(self, vgg19):
        users = _users(uid=range(4))
        plan = plan_rows(users, vgg19, 130e12)
        assert len(set(plan.cuts[0].tolist())) == 1
        c = plan.server_compute[0]
        assert max(c) - min(c) <= 1e-9 * max(max(c), 1.0)

    def test_deterministic(self, vgg19):
        rng = np.random.default_rng(3)
        users = _random_users(rng, 10)
        r1 = plan_rows(users, vgg19, 130e12)
        r2 = plan_rows(users, vgg19, 130e12)
        assert _row(r1, 0) == _row(r2, 0)

    def test_monotone_objective_trace(self, vgg19):
        rng = np.random.default_rng(23)
        for _ in range(10):
            users = _random_users(rng, 10)
            plan = plan_rows(users, vgg19, 130e12)
            objs = [p.objective[0] for p in plan.passes]
            for earlier, later in zip(objs, objs[1:]):
                assert later <= earlier * (1 + 1e-12)

    def test_budget_saturation(self, vgg19):
        rng = np.random.default_rng(29)
        users = _random_users(rng, 10)
        compute = plan_rows(users, vgg19, 130e12).server_compute[0].tolist()
        total = sum(compute)
        if any(c > 0 for c in compute):
            assert abs(total - 130e12) <= 1e-6 * 130e12

    def test_iteration_cap_sets_warning_flag(self, vgg19):
        rng = np.random.default_rng(31)
        users = _random_users(rng, 10)
        plan = plan_rows(users, vgg19, 130e12, OptimizerConfig(max_iters=1))
        assert plan.iterations[0] == 1
        assert not plan.converged[0]

    def test_infeasible_user_rejected(self, vgg19):
        with pytest.raises(InfeasibleUserError, match=r"\[0\]"):
            plan_rows(_users(storage_bytes=[1.0, math.inf]), vgg19, 130e12)

    def test_binding_storage_limits_respected(self, vgg19):
        # one user can hold three layers, another eight; the optimum must
        # stay inside each feasible set and still beat any shared fixed cut
        # the constrained users could all take
        users = _users(kbps=[10.0, 25.0, 10.0], tflops=[1.3, 1.3, 3.25],
                       storage_bytes=[vgg19.model_bytes_by_cut[2],
                                      vgg19.model_bytes_by_cut[7], math.inf])
        plan = plan_rows(users, vgg19, 130e12)
        assert plan.cuts[0, 0] <= 3
        assert plan.cuts[0, 1] <= 8
        for fixed_l in (1, 2, 3):
            assert plan.objective[0] <= sfl_round_time(
                users, vgg19, fixed_l, 130e12
            )[0] * (1 + 1e-12)

    def test_zero_epoch_users_refused_up_front(self, vgg19):
        # epochs 0 lies below the checked range, so the batch is built as is
        users = dataclasses.replace(_users(uid=[0, 4, 7]), epochs=np.array([5.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match=r"users \[4, 7\]: planning needs epochs >= 1"):
            plan_rows(users, vgg19, 130e12)
        with pytest.raises(ValueError, match=r"users \[4, 7\]"):
            plan_rows(users.rows([[0, 1, 2], [2, 1, 0]]), vgg19, 130e12)

    def test_dead_link_user_fails_cleanly(self, vgg19):
        users = UserBatch.checked(500.0, [1e12, 1.3e12], [0.0, 10240.0], [0.0, 10240.0])
        with pytest.raises(AllocationError):
            plan_rows(users, vgg19, 130e12)

    @pytest.mark.parametrize("epoch_objective", [False, True])
    def test_a_model_over_a_dead_link_fails_under_either_objective(self, vgg19,
                                                                  epoch_objective):
        # user 0 trains no sample, so one epoch moves nothing over its dead
        # link; but every round moves its device model, at every cut
        users = UserBatch.checked([0.0, 500.0], 1.3e12, [0.0, 10240.0], [0.0, 10240.0], 5)
        cfg = OptimizerConfig(epoch_objective=epoch_objective)
        for plan in (plan_rows, exact_level):
            with pytest.raises(AllocationError, match=r"^users \[0\]: every feasible cut "
                                                      r"prices to infinity"):
                plan(users, vgg19, 130e12, cfg)

    def test_unusable_budget_is_a_config_error(self, vgg19):
        users = _users(uid=range(2),
                       storage_bytes=[vgg19.model_bytes_by_cut[0], math.inf])
        for c_total in (math.inf, math.nan):
            with pytest.raises(ConfigError, match=r"must be within 1e-20\.\.1e20 FLOP/s"):
                plan_rows(users.rows(None), vgg19, c_total)
        # a budget below the magnitude range is refused before any user is
        # priced; at the bottom of the range, user 0, who cannot train
        # all-local, gets a finite server time
        with pytest.raises(ConfigError, match=r"^c_total must be within 1e-20\.\.1e20 "
                                              r"FLOP/s, not 1e-308$"):
            plan_rows(users, vgg19, 1e-308)
        with np.errstate(over="raise"):
            assert np.isfinite(plan_rows(users, vgg19, 1e-20).objective).all()

    def test_dominates_every_fixed_equal_split_policy(self, vgg19):
        # construction guarantee: the first cut pass already minimizes over
        # each user's whole feasible set at the equal split
        rng = np.random.default_rng(37)
        for _ in range(5):
            users = _random_users(rng, 8)
            plan = plan_rows(users, vgg19, 130e12)
            for fixed_l in (1, 5, 12, 16, 20):
                assert plan.objective[0] <= sfl_round_time(
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
            alone = plan_rows(batch.rows(r), vgg19, 130e12, cfg)
            assert _row(plan, r) == _row(alone, 0)
            assert len(alone.passes) == alone.iterations[0] <= cfg.max_iters

    def test_chunking_does_not_change_the_plan(self, vgg19, monkeypatch):
        batch = self._batch()
        whole = plan_rows(batch, vgg19, 130e12)
        # one row per chunk, then chunks that split the rows unevenly
        for elements in (1, 5 * len(batch) * vgg19.num_layers):
            monkeypatch.setattr(allocation, "MAX_CHUNK_ELEMENTS", elements)
            chunked = plan_rows(batch, vgg19, 130e12)
            for field in _PLAN_FIELDS:
                assert np.array_equal(getattr(whole, field), getattr(chunked, field))
            assert [_row_trace(chunked, r) for r in range(12)] == \
                [_row_trace(whole, r) for r in range(12)]


class TestOptimizerConfig:
    def test_rejects_bad_aggregation_time(self):
        for t_agg in (-1e-9, -5000.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="t_agg"):
                OptimizerConfig(t_agg=t_agg)


class TestBruteForce:
    """:func:`exact_level` against the enumeration and the planner."""

    def _toy_arch(self):
        return load_architecture(_doc([
            "A,0.02,8,0.04", "B,0.03,12,0.02", "C,0.05,9,0.015", "D,0.3,4,0.001",
        ]))

    def test_exact_level_has_no_size_cap(self, vgg19):
        # 4 users x 4 layers, and 20 layers: the enumeration grows as L**S
        users = _random_users(np.random.default_rng(5), 4)
        level, cuts = exact_level(users, self._toy_arch(), 1e12)
        assert level[0] == pytest.approx(
            _enumerated_optimum(users, self._toy_arch(), 1e12)[0], rel=1e-9)
        level, cuts = exact_level(_users(), vgg19, 130e12)
        assert plan_rows(_users(), vgg19, 130e12).objective[0] >= level[0] * (1 - 1e-9)
        assert _attained(_users(), vgg19, 130e12, cuts[0]) <= level[0] * (1 + 1e-9)

    def test_single_user_matches_alternate(self):
        arch = self._toy_arch()
        u = _users(n=100, tflops=0.002, kbps=200)
        level, cuts = exact_level(u, arch, 5e9)
        plan = plan_rows(u, arch, 5e9)
        assert cuts.tolist() == plan.cuts.tolist()
        assert plan.objective[0] == pytest.approx(level[0], rel=1e-9)

    def test_identical_pair_symmetric_optimum(self):
        arch = load_architecture(_doc(["A,0.02,8,0.04", "B,0.03,12,0.02", "C,0.05,9,0.0"]))
        users = _users(n=[100, 100], tflops=0.002, kbps=200)
        _, cuts = exact_level(users, arch, 5e9)
        assert cuts[0, 0] == cuts[0, 1]
        a, b = server_demand_terms(users, cuts[0], arch)
        compute, _ = equalize_min_max(a, b, 5e9)
        assert compute[0] == pytest.approx(compute[1], rel=1e-9)

    def test_oracle_dominates_heuristic(self):
        arch = self._toy_arch()
        rng = np.random.default_rng(41)
        for _ in range(10):
            draws = [(float(rng.integers(50, 300)), float(rng.uniform(0.001, 0.01)),
                      float(rng.uniform(50, 500))) for _ in range(2)]
            users = _users(*zip(*draws))
            level, _ = exact_level(users, arch, 5e9)
            assert level[0] == pytest.approx(
                _enumerated_optimum(users, arch, 5e9)[0], rel=1e-9)
            plan = plan_rows(users, arch, 5e9)
            assert plan.objective[0] >= level[0] * (1 - 1e-9)


def _each_own_kind(batch, deepest):
    """The grouping of a planner that prices every user apart: one kind per user."""
    n_rows, n_users = batch.shape
    row, col = np.divmod(np.arange(n_rows * n_users), n_users)
    return allocation._Kinds(row, col, np.arange(n_rows * n_users).reshape(batch.shape))


def _outcome(fn, *args):
    """``fn(*args)``, or the type and text of the error it raises."""
    try:
        return fn(*args)
    except (EsflError, ValueError) as exc:
        return type(exc), str(exc)


def _per_user(fn, *args):
    """:func:`_outcome` with every user its own kind."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(allocation, "_kinds", _each_own_kind)
        return _outcome(fn, *args)


def _bits(x):
    x = np.asarray(x)
    return x.dtype, x.shape, x.tobytes()


def _plan_bits(plan):
    """Every array of a plan and of each of its passes, bit for bit."""
    return ([_bits(getattr(plan, f)) for f in _PLAN_FIELDS],
            [[_bits(x) for x in p] for p in plan.passes])


def _same_outcome(got, want):
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
    elif isinstance(want, allocation.RowPlan):
        assert isinstance(got, allocation.RowPlan)
        assert _plan_bits(got) == _plan_bits(want)
    else:
        assert [_bits(x) for x in got] == [_bits(x) for x in want]


# a kind of user: samples (zero of either sign, which are kinds apart), device
# FLOP/s, up and down rates (B/s; a dead link one time in ten), epochs, and
# storage and memory as positions on the cuts: position p is the need of cut
# floor(p) + 1 and the fraction p - floor(p) of the way to the next cut's, and
# no limit past the last cut. So users at positions 0 and 0.5, or 1 and 1.5,
# differ in limits but mostly keep one deepest cut, a kind; at 0 and 1 they
# do not.
_KIND = st.tuples(
    st.sampled_from([0.0, -0.0, 200.0, 800.0]),
    st.one_of(st.sampled_from([1e9, 2e10]), st.floats(1e9, 2e10)),
    *[st.tuples(st.integers(0, 9), st.sampled_from([1e5, 2e6])).map(
        lambda pick: 0.0 if pick[0] == 0 else pick[1])] * 2,
    st.integers(1, 2), *[st.sampled_from([0.0, 0.5, 1.0, 1.5, math.inf])] * 2)
# one to four kinds: the first, and others that differ from it in one attribute
_KINDS = st.tuples(_KIND, st.lists(st.tuples(st.integers(0, 6), _KIND), max_size=3)).map(
    lambda drawn: [drawn[0]] + [drawn[0][:i] + other[i:i + 1] + drawn[0][i + 1:]
                                for i, other in drawn[1]])


def _kind_rows(layers, kinds, picks):
    """An architecture of the drawn ``layers`` and the (R, S) batch whose
    users are the drawn ``kinds`` (as ``_KIND`` draws them) that the (R, S)
    ``picks`` name."""
    arch = load_architecture(_doc([f"L{j},{p!r},{f!r},{a!r}"
                                   for j, (p, f, a) in enumerate(layers)]))
    n, flops, up, down, epochs, storage, memory = (
        np.array(x, dtype=float)[picks] for x in zip(*kinds))
    model = arch.model_bytes_by_cut
    needs = model + arch.cum_act_bytes_by_cut

    def limit(position, need):
        last = len(need) - 1
        at = np.minimum(position, last)
        cut = at.astype(int)
        step = need[np.minimum(cut + 1, last)] - need[cut]
        return np.where(position <= last, need[cut] + (at - cut) * step, math.inf)

    ids = np.broadcast_to(np.arange(picks.shape[1]), picks.shape)
    return arch, UserBatch(ids, n, flops, up, down, epochs,
                           limit(storage, model), limit(memory, needs))


class TestKinds:
    """The planner prices one user of each kind (users of a row with bitwise
    equal attributes) and gives its cuts and compute to the others; that
    must be the plan of a planner that prices every user apart."""

    @seed(20248)
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(_LAYER, min_size=2, max_size=5),
        _KINDS,
        st.integers(1, 3), st.integers(1, 6),
        st.one_of(st.floats(1e9, 2e11), st.just(1e-20)),
        st.booleans(), st.sampled_from([0.0, 2.5]), st.data(),
    )
    def test_equals_pricing_every_user(self, layers, kinds, n_rows, n_users, c_total,
                                       epoch_objective, t_agg, data):
        picks = np.array(data.draw(st.lists(
            st.lists(st.integers(0, len(kinds) - 1), min_size=n_users, max_size=n_users),
            min_size=n_rows, max_size=n_rows)))
        arch, batch = _kind_rows(layers, kinds, picks)
        # a kind is the users of a row alike in every priced bit and in their
        # deepest cut, which users whose limits differ in bytes may share
        deepest = deepest_cut(batch, arch)
        bits = np.stack([getattr(batch, f) for f in allocation._PRICED], axis=-1).view(np.int64)
        for of_user, row_bits, cuts in zip(allocation._kinds(batch, deepest).of_user, bits,
                                           deepest):
            alike = (row_bits[:, None] == row_bits).all(axis=-1) & (cuts[:, None] == cuts)
            assert np.array_equal(of_user[:, None] == of_user, alike)
        cfg = OptimizerConfig(epoch_objective=epoch_objective, t_agg=t_agg)
        _same_outcome(_outcome(exact_level, batch, arch, c_total, cfg),
                      _per_user(exact_level, batch, arch, c_total, cfg))
        plan = _per_user(plan_rows, batch, arch, c_total, cfg)
        _same_outcome(_outcome(plan_rows, batch, arch, c_total, cfg), plan)
        if not isinstance(plan, allocation.RowPlan):
            return
        # priced apart, users of one kind still end every pass alike
        for p in plan.passes:
            for row, cuts, compute in zip(picks[p.rows], p.cuts, p.server_compute):
                for k in np.unique(row):
                    assert len({_bits(c) for c in cuts[row == k]}) == 1
                    assert len({_bits(c) for c in compute[row == k]}) == 1

    def test_repeated_users_share_every_pass(self, vgg19):
        spec = preset_scenarios()["BP"]
        rng = np.random.default_rng(3)
        batch = sample_rounds(spec, rng, sample_population_data(spec, rng), 4)
        columns = np.stack([getattr(batch, f.name) for f in dataclasses.fields(UserBatch)[1:]],
                           axis=-1)
        plan = plan_rows(batch, vgg19, 130e12)
        assert _plan_bits(plan) == _plan_bits(_per_user(plan_rows, batch, vgg19, 130e12))
        kinds = allocation._kinds(batch, deepest_cut(batch, vgg19))
        assert len(kinds.row) < batch.user_ids.size
        for p in plan.passes:
            for r, cuts, compute in zip(p.rows, p.cuts, p.server_compute):
                for k in np.unique(kinds.of_user[r]):
                    members = kinds.of_user[r] == k
                    assert len({c.tobytes() for c in columns[r][members]}) == 1
                    assert len(set(cuts[members].tolist())) == 1
                    assert len({c.tobytes() for c in compute[members]}) == 1

    @pytest.mark.parametrize("field", allocation._PRICED)
    def test_users_one_attribute_apart_are_kinds_apart(self, field, vgg19):
        # users 0 and 2 are alike; user 1 differs in one attribute, user 3 in
        # that attribute's sign of zero
        users = _users(uid=range(4), storage_bytes=1e9, memory_bytes=1e9).rows(
            [[0, 1, 2, 3], [0, 1, 2, 3]])
        values = getattr(users, field).copy()
        values[:, 1] *= 2
        values[:, 3] = 0.0
        values[1, 3] = -0.0
        users = dataclasses.replace(users, **{field: values})
        kinds = allocation._kinds(users, deepest_cut(users, vgg19))
        assert len(kinds.row) == 8 - 2
        for r in range(2):
            assert len(set(kinds.of_user[r].tolist())) == 3
            assert kinds.of_user[r, 0] == kinds.of_user[r, 2]
            assert np.array_equal(kinds.row[kinds.of_user[r]], [r] * 4)
        assert kinds.of_user[0, 3] != kinds.of_user[1, 3]

    @pytest.mark.parametrize("field", ["storage_bytes", "memory_bytes"])
    def test_users_apart_in_a_limit_are_kinds_apart_when_deepest_cuts_are(self, field,
                                                                          vgg19):
        # limits at cut 3's need, halfway to cut 4's, just below it, at it, at
        # the last cut's need (which cut 19's equals), and none
        need = vgg19.model_bytes_by_cut
        if field == "memory_bytes":
            need = need + vgg19.cum_act_bytes_by_cut
        limits = [need[2], 0.5 * (need[2] + need[3]), np.nextafter(need[3], 0), need[3],
                  need[-1], math.inf]
        users = _users(uid=range(6), **{field: limits}).rows([[0, 1, 2, 3, 4, 5],
                                                              [5, 3, 1, 4, 2, 0]])
        deepest = deepest_cut(users, vgg19)
        assert deepest[0].tolist() == [3, 3, 3, 4, 20, 20]
        kinds = allocation._kinds(users, deepest)
        assert len(kinds.row) == 2 * 3
        for of_user, cuts in zip(kinds.of_user, deepest):
            assert np.array_equal(of_user[:, None] == of_user, cuts[:, None] == cuts)

    def test_hash_collisions_cost_no_exactness(self, vgg19, monkeypatch):
        batch = TestPlanRows()._batch()
        want = _plan_bits(plan_rows(batch, vgg19, 130e12))
        level = exact_level(batch, vgg19, 130e12)
        # every user of a row hashes alike: kinds split, but stay exact
        monkeypatch.setattr(allocation, "_MIX", np.zeros_like(allocation._MIX))
        assert _plan_bits(plan_rows(batch, vgg19, 130e12)) == want
        _same_outcome(exact_level(batch, vgg19, 130e12), level)

    @pytest.mark.parametrize("dead", [[1, 3, 5], list(range(1, 12))])
    def test_dead_link_names_every_user(self, vgg19, dead):
        rate = np.where(np.isin(np.arange(12), dead), 0.0, 10240.0)
        users = UserBatch.checked(500.0, 1e12, rate, rate, user_ids=np.arange(12) * 10)
        named = id_list(np.array(dead) * 10)
        for batch in (users, users.rows([[0, 1, 2, 3], [4, 5, 6, 7]])):
            for fn in (plan_rows, exact_level):
                got = _outcome(fn, batch, vgg19, 130e12)
                assert got == _per_user(fn, batch, vgg19, 130e12)
                assert got[0] is AllocationError
        assert _outcome(plan_rows, users, vgg19, 130e12)[1] == (
            f"users {named}: every feasible cut prices to infinity "
            f"(dead link with unavoidable traffic?)")

    def test_small_budget_names_every_user(self, vgg19):
        # users 0, 20 and 40 cannot train all-local. A budget below the
        # magnitude range is refused before any kind is priced, so the error
        # names the budget, not users; at the bottom of the range every
        # user of a kind plans as that kind does
        storage = np.where(np.arange(6) % 2 == 0, vgg19.model_bytes_by_cut[0], math.inf)
        users = _users(uid=np.arange(6) * 10, storage_bytes=storage)
        for fn in (plan_rows, exact_level):
            got = _outcome(fn, users, vgg19, 1e-308)
            assert got == _per_user(fn, users, vgg19, 1e-308)
            assert got == (ConfigError, "c_total must be within 1e-20..1e20 FLOP/s, "
                                        "not 1e-308")
            _same_outcome(_outcome(fn, users, vgg19, 1e-20),
                          _per_user(fn, users, vgg19, 1e-20))


def _solving_every_pass(users, arch, c_total, cfg):
    """A (1, S) batch planned by the alternation with a resource pass that
    runs ``server_demand_terms`` and ``_equalize`` on every pass: row 0's
    results and passes, as bits, as :func:`_row_bits` gives them."""
    batch, feasible = allocation._checked_rows(users, arch, c_total)
    cut_pass = allocation._CutPass.of(batch, allocation._kinds(batch, feasible), feasible,
                                      arch, cfg)
    compute = np.full(batch.shape, c_total / batch.shape[1])
    trace, best = [], None
    for it in range(1, cfg.max_iters + 1):
        cuts, times = cut_pass(compute)
        a, b = server_demand_terms(batch, cuts, arch, cfg)
        new, steps, levels = allocation._equalize(a, b, c_total)
        objective = allocation._objective(levels, times.max(axis=-1))
        trace.append((it, *(_bits(x[0]) for x in (objective, cuts, new, steps))))
        if best is None or objective[0] < best[2]:
            best = (cuts[0], new[0], objective[0])
        stalled = allocation._stalled(new, compute, allocation.STALL_TOLERANCE)[0]
        compute = new
        if stalled:
            break
    return [_bits(x) for x in (*best, it, stalled)], trace


def _row_bits(plan, r):
    """Row r of a plan and of each of its passes, as :func:`_solving_every_pass`
    gives them."""
    trace = []
    for p in plan.passes:
        k = np.searchsorted(p.rows, r)
        if k < len(p.rows) and p.rows[k] == r:
            trace.append((p.iteration, *(_bits(x[k]) for x in (
                p.objective, p.cuts, p.server_compute, p.steps))))
    return [_bits(getattr(plan, f)[r]) for f in _PLAN_FIELDS], trace


# a kind of user with live links: samples, device FLOP/s, up and down rates
# (B/s), epochs, and storage and memory shares as in ``_KIND``
_LIVE_KIND = st.tuples(
    st.sampled_from([200.0, 800.0]), st.floats(1e9, 2e10),
    *[st.sampled_from([1e5, 2e6])] * 2, st.integers(1, 2),
    *[st.sampled_from([0.0, 0.4, 1.0])] * 2)


class TestFixedPoint:
    """A row whose cut pass repeats its last pass's cuts keeps that pass's
    solve instead of running it again: the plan must be that of a planner
    that solves every pass, but for the demand evaluations of such a pass."""

    @seed(20261)
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(_LAYER, min_size=2, max_size=5),
        st.lists(_LIVE_KIND, min_size=1, max_size=3),
        st.integers(1, 5), st.integers(1, 6), st.floats(1e9, 2e11),
        st.booleans(), st.sampled_from([0.0, 2.5]), st.sampled_from([1, 2, 50]),
        st.data(),
    )
    def test_equals_solving_every_pass(self, layers, kinds, n_rows, n_users, c_total,
                                       epoch_objective, t_agg, max_iters, data):
        picks = np.array(data.draw(st.lists(
            st.lists(st.integers(0, len(kinds) - 1), min_size=n_users, max_size=n_users),
            min_size=n_rows, max_size=n_rows)))
        arch, batch = _kind_rows(layers, kinds, picks)
        cfg = OptimizerConfig(max_iters=max_iters, epoch_objective=epoch_objective,
                              t_agg=t_agg)
        plan = plan_rows(batch, arch, c_total, cfg)
        for r in range(n_rows):
            got, got_trace = _row_bits(plan, r)
            want, want_trace = _solving_every_pass(batch.rows([r]), arch, c_total, cfg)
            assert got == want
            assert len(got_trace) == len(want_trace)
            previous = None
            for i, (pass_, solved) in enumerate(zip(got_trace, want_trace)):
                assert pass_[:4] == solved[:4]
                repeat = previous is not None and pass_[2] == previous[2]
                assert pass_[4] == (_bits(np.int64(0)) if repeat else solved[4])
                assert not repeat or i == len(got_trace) - 1
                previous = pass_

    def test_every_preset_row_ends_on_a_reused_solve(self, vgg19):
        for spec in preset_scenarios().values():
            rng = np.random.default_rng(spec.seed)
            batch = sample_rounds(spec, rng, sample_population_data(spec, rng), 20)
            plan = plan_rows(batch, vgg19, spec.server_tflops * 1e12)
            for r in range(batch.shape[0]):
                trace = _row_trace(plan, r)
                assert len(trace) >= 2
                assert trace[-1][2] == trace[-2][2] and trace[-1][4] == 0


class TestRowsPlanAlone:
    """Each pass prices every row of its chunk, stalled or not, and reads only
    the rows still live: every row's plan and passes must be those of the row
    planned alone, bit for bit, however the rows are chunked."""

    def test_every_row_plans_as_it_would_alone(self):
        spread = []     # whether an example's rows stalled at different passes

        @seed(20263)
        @settings(max_examples=120, deadline=None, derandomize=True, database=None)
        @given(
            st.lists(_LAYER, min_size=2, max_size=5),
            # live links spread the passes; ``_KINDS`` adds dead links and
            # zero samples, so that some batches fail
            st.one_of(st.lists(_LIVE_KIND, min_size=2, max_size=4), _KINDS),
            st.integers(2, 6), st.integers(1, 6), st.floats(1e9, 2e11),
            st.booleans(), st.sampled_from([0.0, 2.5]), st.sampled_from([50, 1, 2]),
            # rows per chunk: every row in one, one row each, or chunks of two
            # or three that split the rows unevenly
            st.sampled_from([None, 1, 2, 3]), st.data(),
        )
        def check(layers, kinds, n_rows, n_users, c_total, epoch_objective, t_agg,
                  max_iters, chunk_rows, data):
            # row r's users are of the first r + 1 kinds: row 0 is of one kind
            # and stalls early, while rows of mixed kinds go on
            picks = np.array([data.draw(st.lists(
                st.integers(0, min(r, len(kinds) - 1)), min_size=n_users, max_size=n_users))
                for r in range(n_rows)])
            arch, batch = _kind_rows(layers, kinds, picks)
            cfg = OptimizerConfig(max_iters=max_iters, epoch_objective=epoch_objective,
                                  t_agg=t_agg)
            alone = [_outcome(plan_rows, batch.rows(r), arch, c_total, cfg)
                     for r in range(n_rows)]
            with pytest.MonkeyPatch.context() as mp:
                if chunk_rows is not None:
                    mp.setattr(allocation, "MAX_CHUNK_ELEMENTS",
                               chunk_rows * n_users * arch.num_layers)
                plan = _outcome(plan_rows, batch, arch, c_total, cfg)
            failed = [got[0] for got in alone if not isinstance(got, allocation.RowPlan)]
            if not isinstance(plan, allocation.RowPlan):
                assert plan[0] in failed
                return
            assert not failed
            for r, row in enumerate(alone):
                assert _row_bits(plan, r) == _row_bits(row, 0)
            spread.append(len(set(plan.iterations.tolist())) > 1)

        check()
        assert sum(spread) >= 10


class TestDemandTerms:
    """The resource pass reads its terms (a, b) from the cut pass's priced
    terms. They must equal ``server_demand_terms``, the independent route
    through ``round_terms``, bit for bit."""

    @seed(20262)
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(_LAYER, min_size=2, max_size=5), _KINDS,
        st.integers(1, 4), st.integers(1, 6), st.booleans(),
        st.one_of(st.just(0.0), st.floats(0.01, 10.0)), st.data(),
    )
    def test_equal_server_demand_terms(self, layers, kinds, n_rows, n_users,
                                       epoch_objective, t_agg, data):
        # epochs past 2, so that a product by them rounds and a sum in
        # another order shows
        epochs = data.draw(st.lists(st.integers(1, 9), min_size=len(kinds),
                                    max_size=len(kinds)))
        kinds = [kind[:4] + (e,) + kind[5:] for kind, e in zip(kinds, epochs)]
        picks = np.array(data.draw(st.lists(
            st.lists(st.integers(0, len(kinds) - 1), min_size=n_users, max_size=n_users),
            min_size=n_rows, max_size=n_rows)))
        arch, batch = _kind_rows(layers, kinds, picks)
        cfg = OptimizerConfig(epoch_objective=epoch_objective, t_agg=t_agg)
        batch, feasible = allocation._checked_rows(batch, arch, 1e12)
        # the passes over a chunk: the rows from a drawn one on
        rows = slice(data.draw(st.integers(0, n_rows - 1)), None)
        users, feasible = batch.rows(rows), feasible[rows]
        cut_pass = allocation._CutPass.of(users, allocation._kinds(users, feasible), feasible,
                                          arch, cfg)

        # (N, L), one row per kind: +inf exactly at the cuts beyond storage
        # or memory or whose model crosses a dead link, and the reference's
        # terms elsewhere
        of_kinds = users.rows((cut_pass.kinds.row, cut_pass.kinds.col))
        want_a, want_b = server_demand_terms(of_kinds, None, arch, cfg)
        a, b = cut_pass.terms.demand()
        move = round_terms(of_kinds, arch, None, np.inf)
        runnable = feasibility_mask(of_kinds, arch) & np.isfinite(move.t_up + move.t_down)
        assert _bits(a) == _bits(want_a)
        assert _bits(b) == _bits(np.where(runnable, want_b, np.inf))

        # per user, at random runnable cuts (within storage and memory, and
        # a finite round), of the rows where every user has one
        runnable = (feasibility_mask(users, arch)
                    & np.isfinite(round_terms(users, arch, None, np.inf).total))
        cuts = np.ones(users.shape, dtype=int)
        for r, s in zip(*np.nonzero(runnable.any(axis=-1))):
            cuts[r, s] = data.draw(st.sampled_from((np.flatnonzero(runnable[r, s]) + 1).tolist()))
        planned = runnable.any(axis=-1).all(axis=-1)
        if planned.any():   # the planner solves no empty set of rows
            got = cut_pass.demand(cuts, planned)
            want = server_demand_terms(users.rows(planned), cuts[planned], arch, cfg)
            assert [_bits(x) for x in got] == [_bits(x) for x in want]


class TestOnePricingRoute:
    """``plan_rows`` and ``exact_level`` price their users once, through the
    cut pass: one ``round_terms`` per chunk and none per pass, and no call of
    ``server_demand_terms``."""

    def test_plans_price_once_per_chunk(self, vgg19, monkeypatch):
        batch = TestPlanRows()._batch()
        plan, exact = plan_rows(batch, vgg19, 130e12), exact_level(batch, vgg19, 130e12)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])   # the cuts
            return round_terms(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("priced again, by server_demand_terms")

        # the cut pass prices through ``timing``; ``allocation`` calls it by its own name
        monkeypatch.setattr(timing, "round_terms", counted)
        monkeypatch.setattr(allocation, "round_terms", counted)
        monkeypatch.setattr(allocation, "server_demand_terms", refuse)
        assert _plan_bits(plan_rows(batch, vgg19, 130e12)) == _plan_bits(plan)
        assert calls == [None]
        # 12 rows in chunks of 5: three chunks, each priced once at every cut
        calls.clear()
        monkeypatch.setattr(allocation, "MAX_CHUNK_ELEMENTS",
                            5 * len(batch) * vgg19.num_layers)
        assert _plan_bits(plan_rows(batch, vgg19, 130e12))[0] == _plan_bits(plan)[0]
        assert calls == [None] * 3
        calls.clear()
        _same_outcome(exact_level(batch, vgg19, 130e12), exact)
        assert calls == [None]
