from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from esfl import (
    ConfigError,
    OptimizerConfig,
    ScenarioSpec,
    SimOptions,
    convergence_study,
    load_builtin,
    preset_scenarios,
    price_rounds,
    run_simulation,
    sample_rounds,
)
from esfl import simulation
from esfl.simulation import (
    CutLayerDistribution,
    _cut_distribution,
    sample_population_data,
    sample_population_resources,
)


@pytest.fixture(scope="module")
def vgg19():
    return load_builtin("vgg19")


def _small(spec, **kw):
    from dataclasses import replace
    return replace(spec, **kw)


class TestPresets:
    def test_all_eight_present(self):
        assert set(preset_scenarios()) == {"BP", "PR", "RP", "BR", "SH", "SL", "LS", "LH"}

    def test_edits_to_the_dict_stay_with_the_caller(self):
        # the specs are built once, so each call must hand out its own dict
        first = preset_scenarios()
        bp = first["BP"]
        first["BP"] = None
        del first["LH"]
        again = preset_scenarios()
        assert again is not first and len(again) == 8
        assert again["BP"] is bp

    def test_bp_options(self):
        bp = preset_scenarios()["BP"]
        assert bp.comm_options == (10.0, 15.0, 20.0, 25.0)
        assert bp.comp_options == (1.3, 1.95, 2.6, 3.25)
        assert bp.data_options == (500.0,)

    def test_lh_options(self):
        lh = preset_scenarios()["LH"]
        assert lh.comm_options == (5.0, 10.0, 20.0, 35.0)
        assert lh.comp_options == (0.65, 1.3, 2.6, 4.55)

    def test_heterogeneity_presets_use_varied_data(self):
        presets = preset_scenarios()
        for name in ("SH", "SL", "LS", "LH"):
            assert presets[name].data_options == (200.0, 400.0, 600.0, 800.0)

    def test_shared_defaults(self):
        for spec in preset_scenarios().values():
            assert spec.population == 100
            assert spec.selected_per_round == 10
            assert spec.epochs == 5
            assert spec.server_tflops == 130.0

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            ScenarioSpec("x", (), (1.0,), (1.0,))
        for bad in ({"comm_options": (float("nan"),)}, {"comp_options": (0.0,)},
                    {"data_options": (float("inf"),)}, {"server_tflops": float("inf")},
                    {"server_tflops": 1e297},
                    {"comm_options": (-1.0,)}, {"comm_options": (10.0, 0.0)},
                    {"comm_options": (-0.0,)}, {"epochs": 0}, {"seed": -1},
                    {"epochs": 2.7}, {"rounds": 1.5}, {"seed": True}):
            kw = {"comm_options": (1.0,), "comp_options": (1.0,),
                  "data_options": (1.0,), **bad}
            with pytest.raises(ConfigError):
                ScenarioSpec("x", **kw)
        with pytest.raises(ConfigError):
            SimOptions(kb_bytes=float("nan"))
        with pytest.raises(ConfigError):
            ScenarioSpec("x", (1.0,), (1.0,), (1.0,), population=5,
                         selected_per_round=6)


class TestSampling:
    def test_seeded_selection_reproduces(self, vgg19):
        spec = preset_scenarios()["BP"]
        for _ in range(2):
            rng = np.random.default_rng(spec.seed)
            data = sample_population_data(spec, rng)
            ids = tuple(sample_rounds(spec, rng, data, 1).user_ids[0].tolist())
            if _ == 0:
                first = ids
        assert ids == first

    def test_full_population_selection(self):
        spec = _small(preset_scenarios()["BP"], selected_per_round=100)
        rng = np.random.default_rng(0)
        batch = sample_rounds(spec, rng, sample_population_data(spec, rng), 1)
        assert sorted(batch.user_ids[0].tolist()) == list(range(100))

    def test_single_option_lists_make_identical_users(self):
        spec = ScenarioSpec("uniform", (10.0,), (1.3,), (500.0,))
        rng = np.random.default_rng(1)
        batch = sample_rounds(spec, rng, sample_population_data(spec, rng), 1)
        users = zip(batch.n_samples[0], batch.compute_flops[0], batch.up[0])
        assert len(set(users)) == 1

    @pytest.mark.parametrize("sticky", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_rounds_equal_the_choice_draws(self, seed, sticky):
        spec = ScenarioSpec("draws", tuple(10.0 * (1 + k) for k in range(1 + seed)),
                            tuple(1.3 * (1 + k) for k in range(4 - seed)),
                            (200.0, 500.0), population=12 + 7 * seed,
                            selected_per_round=1 + 3 * seed)
        rng = np.random.default_rng(seed)
        data = sample_population_data(spec, rng)
        resources = sample_population_resources(spec, rng) if sticky else None
        state = rng.bit_generator.state
        got = sample_rounds(spec, rng, data, 5, resources, kb_bytes=1000.0)
        rng.bit_generator.state = state
        want = _choice_sample_rounds(spec, rng, data, 5, resources)
        np.testing.assert_array_equal(got.user_ids, want[0])
        np.testing.assert_array_equal(got.up, want[1] * 1000.0)
        np.testing.assert_array_equal(got.down, want[1] * 1000.0)
        np.testing.assert_array_equal(got.compute_flops, want[2] * 1e12)
        np.testing.assert_array_equal(got.n_samples, data[want[0]])


@st.composite
def _sampling_cases(draw):
    """A scenario, a seed, a round count, a chunk size and the selection
    from which rounds are drawn one by one, for sample_rounds.

    Populations lie on both sides of 10,000, above which ``choice`` shuffles
    the tail of the population instead of running Floyd's algorithm when it
    selects more than ``population // 50``; selections reach the whole
    population, chunks as small as one round split the draws, and the
    selection that switches to round-by-round draws ranges from every round
    to none, so both paths meet every shape."""
    population = draw(st.one_of(st.integers(1, 60), st.integers(61, 10_000),
                                st.integers(10_001, 30_000)))
    if population > 10_000:
        cutoff = population // 50
        selected = draw(st.one_of(st.integers(1, cutoff),
                                  st.integers(cutoff + 1, cutoff + 100)))
    else:
        selected = draw(st.one_of(st.integers(1, min(population, 300)),
                                  st.integers(max(1, population - 5), population)))
    comm, comp = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    spec = ScenarioSpec("draws", tuple(10.0 * (1 + k) for k in range(comm)),
                        tuple(1.3 * (1 + k) for k in range(comp)), (200.0, 500.0),
                        population=population, selected_per_round=selected)
    return (spec, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 12)),
            draw(st.booleans()), draw(st.sampled_from([1, 50, 500, 2**18])),
            draw(st.sampled_from([1, 100, simulation._CHOICE_MIN_SELECTED, 10**9])))


class TestSamplingProperty:
    @seed(20262)
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(_sampling_cases())
    def test_rounds_and_stream_equal_the_choice_draws(self, case):
        spec, rng_seed, rounds, sticky, chunk, choice_from = case
        rng = np.random.default_rng(rng_seed)
        data = sample_population_data(spec, rng)
        resources = sample_population_resources(spec, rng) if sticky else None
        state = rng.bit_generator.state
        with mock.patch.object(simulation, "_DRAW_CHUNK", chunk), \
                mock.patch.object(simulation, "_CHOICE_MIN_SELECTED", choice_from):
            got = sample_rounds(spec, rng, data, rounds, resources, kb_bytes=1000.0)
        after = rng.bit_generator.state
        rng.bit_generator.state = state
        want = _choice_sample_rounds(spec, rng, data, rounds, resources)
        assert rng.bit_generator.state == after
        np.testing.assert_array_equal(got.user_ids, want[0])
        np.testing.assert_array_equal(got.up, want[1] * 1000.0)
        np.testing.assert_array_equal(got.compute_flops, want[2] * 1e12)
        np.testing.assert_array_equal(got.n_samples, data[want[0]])


def _choice_sample_rounds(spec, rng, data, rounds, sticky):
    """Reference draws of ``sample_rounds``: selected ids, rates (KB/s) and
    compute (TFLOPs), each round drawn by ``Generator.choice``."""
    ids, comm, comp = [], [], []
    for _ in range(rounds):
        ids.append(np.sort(rng.choice(spec.population, size=spec.selected_per_round,
                                      replace=False)))
        if sticky is None:
            comm.append(rng.choice(np.array(spec.comm_options),
                                   size=spec.selected_per_round))
            comp.append(rng.choice(np.array(spec.comp_options),
                                   size=spec.selected_per_round))
    ids = np.array(ids)
    if sticky is not None:
        return ids, sticky[0][ids], sticky[1][ids]
    return ids, np.array(comm), np.array(comp)


class TestRunRound:
    def test_esfl_never_slower_than_sfl(self, vgg19):
        spec = _small(preset_scenarios()["BP"], rounds=5)
        report = run_simulation(spec, ("esfl", "sfl"), vgg19)
        assert np.all(report.times["esfl"] <= report.times["sfl"])

    def test_esfl_never_slower_than_fl(self, vgg19):
        # full-local is one of the cut choices ESFL may take per user
        spec = _small(preset_scenarios()["RP"], rounds=5)
        report = run_simulation(spec, ("esfl", "fl"), vgg19)
        assert np.all(report.times["esfl"] <= report.times["fl"])

    def test_requested_algorithms_only(self, vgg19):
        spec = _small(preset_scenarios()["BP"], rounds=1)
        rng = np.random.default_rng(0)
        batch = sample_rounds(spec, rng, sample_population_data(spec, rng), 1)
        times, comms, plan = price_rounds(batch, ("fl",), vgg19, spec)
        assert set(times) == set(comms) == {"fl"}
        assert times["fl"].shape == comms["fl"].shape == (1,)
        assert plan is None

    def test_unknown_algorithm_rejected(self, vgg19):
        spec = _small(preset_scenarios()["BP"], rounds=1)
        rng = np.random.default_rng(0)
        batch = sample_rounds(spec, rng, sample_population_data(spec, rng), 1)
        with pytest.raises(ConfigError):
            price_rounds(batch, ("esfl", "gossip"), vgg19, spec)

    def test_repeated_algorithm_rejected(self, vgg19):
        # one name twice would give two report rows one label
        spec = _small(preset_scenarios()["BP"], rounds=2)
        rng = np.random.default_rng(0)
        batch = sample_rounds(spec, rng, sample_population_data(spec, rng), 1)
        with pytest.raises(ConfigError, match="^algorithms must name each algorithm once, not 'esfl'$"):
            price_rounds(batch, ["esfl", "fl", "esfl"], vgg19, spec)
        with pytest.raises(ConfigError, match="^algorithms must name each algorithm once, not 'esfl'$"):
            run_simulation(spec, ["esfl", "fl", "esfl"], vgg19)

    def test_empty_algorithm_list_rejected(self, vgg19):
        spec = _small(preset_scenarios()["BP"], rounds=2)
        rng = np.random.default_rng(0)
        batch = sample_rounds(spec, rng, sample_population_data(spec, rng), 1)
        with pytest.raises(ConfigError, match=r"^algorithms must name at least one algorithm, not \(\)$"):
            price_rounds(batch, (), vgg19, spec)
        with pytest.raises(ConfigError, match=r"^algorithms must name at least one algorithm, not \(\)$"):
            run_simulation(spec, [], vgg19)

    def test_fixed_cut_outside_the_layers_refused_before_any_draw(self, vgg19, monkeypatch):
        # a fixed cut of 0 was read as "none given" and priced at the default cut
        def refuse(*args, **kwargs):
            raise AssertionError("drew a round for a run that should have been refused")
        for name in ("sample_population_data", "sample_rounds"):
            monkeypatch.setattr(simulation, name, refuse)
        spec = _small(preset_scenarios()["BP"], rounds=2)
        for cut in (0, -3, vgg19.num_layers + 1, 2.0, True):
            with pytest.raises(ConfigError, match=rf"^fixed_cut must be an integer in "
                                                  rf"1\.\.20, not {cut!r}$"):
                run_simulation(spec, ("sfl", "sl"), vgg19, SimOptions(fixed_cut=cut))
        with pytest.raises(ConfigError, match="^algorithms must name only esfl, sfl, fl, sl"):
            run_simulation(spec, ("esfl", "gossip"), vgg19)

    def test_identical_users_zero_variance_across_rounds(self, vgg19):
        spec = ScenarioSpec("uniform", (10.0,), (1.3,), (500.0,), rounds=4)
        report = run_simulation(spec, ("esfl", "fl"), vgg19)
        for algo in ("esfl", "fl"):
            vals = set(report.times[algo].tolist())
            assert len(vals) == 1

    def test_communication_bounded_by_total(self, vgg19):
        spec = _small(preset_scenarios()["SH"], rounds=5)
        report = run_simulation(spec, ("esfl", "sfl", "fl", "sl"), vgg19)
        for algo, total in report.times.items():
            assert np.all(report.comm_times[algo] <= total)


class TestRunSimulation:
    def test_single_round_totals(self, vgg19):
        spec = _small(preset_scenarios()["BP"], rounds=1)
        report = run_simulation(spec, ("esfl", "fl"), vgg19)
        for algo in ("esfl", "fl"):
            assert report.total_time[algo] == report.times[algo][0]
            assert report.mean_round_time[algo] == report.times[algo][0]

    def test_totals_sum_the_records(self, vgg19):
        spec = _small(preset_scenarios()["BP"], rounds=6)
        report = run_simulation(spec, ("sfl",), vgg19)
        assert report.total_time["sfl"] == pytest.approx(
            sum(report.times["sfl"].tolist()), rel=1e-12
        )

    def test_distribution_rows_normalized(self, vgg19):
        spec = _small(preset_scenarios()["BP"], rounds=10)
        report = run_simulation(spec, ("esfl",), vgg19)
        dist = report.cut_distribution
        assert dist is not None
        sums = dist.matrix.sum(axis=1)
        assert np.all(np.abs(sums - 1.0) <= 1e-12)
        assert abs(dist.pooled.sum() - 1.0) <= 1e-12

    def test_reproducible_reports(self, vgg19):
        spec = _small(preset_scenarios()["SH"], rounds=5)
        r1 = run_simulation(spec, ("esfl", "sfl"), vgg19)
        r2 = run_simulation(spec, ("esfl", "sfl"), vgg19)
        assert np.array_equal(r1.user_ids, r2.user_ids)
        for algo in ("esfl", "sfl"):
            assert np.array_equal(r1.times[algo], r2.times[algo])
            assert np.array_equal(r1.comm_times[algo], r2.comm_times[algo])
        for field in ("cuts", "server_compute", "iterations", "converged"):
            assert np.array_equal(getattr(r1.esfl_plan, field), getattr(r2.esfl_plan, field))
        assert r1.to_dict() == r2.to_dict()

    def test_sticky_resources_mode(self, vgg19):
        spec = ScenarioSpec("sticky", (10.0, 25.0), (1.3, 3.25), (500.0,),
                            rounds=6, selected_per_round=10)
        report = run_simulation(spec, ("fl",), vgg19,
                                SimOptions(sticky_resources=True))
        # a user selected in two rounds keeps its resources, so repeated
        # (user set -> fl time) pairs agree
        seen = {}
        for user_ids, time in zip(report.user_ids.tolist(), report.times["fl"].tolist()):
            key = tuple(user_ids)
            if key in seen:
                assert time == seen[key]
            seen[key] = time

    def test_optimizer_aggregation_time_prices_every_algorithm(self, vgg19):
        # the synchronous rounds each end with one aggregation; the
        # sequential relay aggregates once after its last user
        spec = _small(preset_scenarios()["SH"], rounds=3)
        algos = ("esfl", "fl", "sfl", "sl")
        base = run_simulation(spec, algos, vgg19)
        agg = run_simulation(spec, algos, vgg19,
                             SimOptions(optimizer=OptimizerConfig(t_agg=3.0)))
        for algo in algos:
            assert agg.times[algo] == pytest.approx(base.times[algo] + 3.0, rel=1e-9)

    def test_convergence_summary_present(self, vgg19):
        spec = _small(preset_scenarios()["BP"], rounds=3)
        report = run_simulation(spec, ("esfl",), vgg19)
        assert report.convergence["all_converged"] is True
        assert report.convergence["max_iterations"] >= 1
        assert report.esfl_plan.passes == ()   # a report keeps no pass trace


def _loop_cut_distribution(user_ids, cuts, n_layers) -> CutLayerDistribution:
    """Reference: one count row per user, filled round by round."""
    counts = {}
    for row_ids, row_cuts in zip(np.asarray(user_ids).tolist(), np.asarray(cuts).tolist()):
        for uid, cut in zip(row_ids, row_cuts):
            counts.setdefault(uid, np.zeros(n_layers))[cut - 1] += 1
    ids = tuple(sorted(counts))
    pooled = np.sum([counts[uid] for uid in ids], axis=0)
    return CutLayerDistribution(
        user_ids=ids,
        matrix=np.array([counts[uid] / counts[uid].sum() for uid in ids]),
        pooled=pooled / pooled.sum(),
    )


def _assert_same_distribution(got, want):
    assert got.user_ids == want.user_ids
    assert all(type(uid) is int for uid in got.user_ids)
    assert np.array_equal(got.matrix, want.matrix)
    assert np.array_equal(got.pooled, want.pooled)
    assert got.entropy_variance() == want.entropy_variance()


class TestCutDistribution:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_loop_on_random_records(self, seed):
        rng = np.random.default_rng(seed)
        rounds, selected, n_layers = int(rng.integers(1, 9)), int(rng.integers(1, 7)), 20
        population = selected + int(rng.integers(0, 3 * selected))
        user_ids = np.stack([np.sort(rng.choice(population, selected, replace=False))
                             for _ in range(rounds)])
        cuts = rng.integers(1, n_layers + 1, size=user_ids.shape)
        got = _cut_distribution(user_ids, cuts, n_layers)
        _assert_same_distribution(got, _loop_cut_distribution(user_ids, cuts, n_layers))
        seen = np.unique(user_ids, return_counts=True)[1]
        if seed == 0:  # the draw holds users seen in one round and in several
            assert (seen == 1).any() and (seen > 1).any()

    def test_matches_the_loop_on_a_simulation(self, vgg19):
        spec = _small(preset_scenarios()["LH"], population=30, rounds=20)
        report = run_simulation(spec, ("esfl",), vgg19)
        _assert_same_distribution(report.cut_distribution, _loop_cut_distribution(
            report.user_ids, report.esfl_plan.cuts, vgg19.num_layers))

    @seed(20262)
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 6), st.data())
    def test_rows_are_grouped_by_their_bits(self, n_layers, data):
        # a pool of sparse count rows, one-hot rows (p = 1.0) among them, and
        # per-user rows drawn from it, some with a zero's sign flipped
        counts = st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=n_layers,
                          max_size=n_layers).filter(any)
        pool = data.draw(st.lists(counts, min_size=1, max_size=4))
        picks = data.draw(st.lists(st.tuples(
            st.integers(0, len(pool) - 1),
            st.lists(st.booleans(), min_size=n_layers, max_size=n_layers)), max_size=12))
        rows = [np.where((np.array(pool[k]) == 0) & np.array(flip), -0.0,
                         np.array(pool[k]) / sum(pool[k])) for k, flip in picks]
        matrix = np.array(rows).reshape(len(picks), n_layers)

        def bits(x):
            return np.asarray(x, dtype=float).tobytes()

        def grouped(mix):
            dist = CutLayerDistribution(tuple(range(len(picks))), matrix,
                                        np.full(n_layers, 1.0 / n_layers))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(simulation, "_ROW_MIX", mix)
                rows, row_of_user = dist.distinct_rows
                entropies = dist.entropies()
            return (rows.tolist(), row_of_user.tolist(), bits(entropies)), dist

        got, dist = grouped(simulation._ROW_MIX)
        rows, row_of_user, entropies = got
        assert grouped(0)[0] == got   # every row hashes alike
        assert bits(np.array(rows).reshape(-1, n_layers)[row_of_user]) == bits(matrix)
        assert len(set(map(bits, rows))) == len(rows)
        firsts = [row_of_user.index(k) for k in range(len(rows))]
        assert firsts == sorted(set(firsts))
        with np.errstate(divide="ignore", invalid="ignore"):
            dense = np.where(matrix > 0, -matrix * np.log2(matrix), 0.0).sum(axis=1)
        assert entropies == bits(dense)
        assert dist.entropy_variance() == (float(np.var(dense)) if len(picks) else 0.0)


class TestRowsMatchRoundByRound:
    """Planning every round at once equals planning each round alone."""

    @staticmethod
    def _assert_close(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        assert np.all(np.abs(x - y) <= 1e-12 * np.maximum(np.abs(x), np.abs(y)))

    @pytest.mark.parametrize("name", sorted(preset_scenarios()))
    @pytest.mark.parametrize("options", [
        SimOptions(),
        SimOptions(optimizer=OptimizerConfig(epoch_objective=True, t_agg=2.5)),
        SimOptions(sticky_resources=True, fixed_cut=4),
    ], ids=["default", "epoch-objective-t-agg", "sticky-fixed-cut"])
    def test_records_match(self, vgg19, name, options):
        spec = _small(preset_scenarios()[name], rounds=8, seed=3)
        algos = ("esfl", "sfl", "fl", "sl")
        report = run_simulation(spec, algos, vgg19, options)
        rng = np.random.default_rng(spec.seed)
        data = sample_population_data(spec, rng)
        sticky = (sample_population_resources(spec, rng)
                  if options.sticky_resources else None)
        plan = report.esfl_plan
        assert len(report.user_ids) == spec.rounds
        for r in range(spec.rounds):
            one = sample_rounds(spec, rng, data, 1, sticky, options.kb_bytes)
            times, comms, alone = price_rounds(one, algos, vgg19, spec, options)
            assert np.array_equal(report.user_ids[r], one.user_ids[0])
            assert np.array_equal(plan.cuts[r], alone.cuts[0])
            assert plan.iterations[r] == alone.iterations[0]
            assert plan.converged[r] == alone.converged[0]
            self._assert_close(plan.server_compute[r], alone.server_compute[0])
            for algo in algos:
                self._assert_close(report.times[algo][r], times[algo][0])
                self._assert_close(report.comm_times[algo][r], comms[algo][0])


class TestConvergenceStudy:
    def test_row_per_scenario_scale_pair(self, vgg19):
        cells = convergence_study(vgg19, scales=(5, 10), repetitions=2)
        assert len(cells) == 4 * 2
        names = {(c.scenario, c.scale) for c in cells}
        assert ("BP", 5) in names and ("BR", 10) in names

    def test_single_user_scale_converges_immediately(self, vgg19):
        presets = preset_scenarios()
        cells = convergence_study(vgg19, scenarios=[presets["BP"]],
                                  scales=(1,), repetitions=2)
        assert all(c.max_iterations <= 2 for c in cells)
