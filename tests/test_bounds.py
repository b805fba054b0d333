"""Every library entry that takes a bounded parameter refuses a value
outside the bound with a ConfigError, which is also a ValueError, whose
``field`` and message name the parameter.

Every multiplicand of the latency model is 0 or of a magnitude in
1e-20..1e20; inside that range no objective overflows, which a property
checks at the range's corners."""

import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from esfl import (
    ConfigError,
    OptimizerConfig,
    ProfileError,
    ScenarioSpec,
    SimOptions,
    ToyUser,
    UserBatch,
    convergence_study,
    equalize_min_max,
    esfl_round_time,
    esfl_train,
    exact_level,
    fl_round_time,
    init_dense_net,
    load_architecture,
    load_builtin,
    make_blobs,
    plan_rows,
    preset_scenarios,
    run_simulation,
    sample_rounds,
    server_demand_terms,
    sfl_round_time,
    sl_round_time,
)
from esfl.errors import FINITE, INTEGER, NUMBER, check
from esfl.simulation import MAX_POPULATION
from esfl.users import read_users
from esfl.workload import LayerProfile

VGG19 = load_builtin("vgg19")
BP = preset_scenarios()["BP"]
NET = init_dense_net([2, 3, 2], loss="mse", rng=np.random.default_rng(3))
X, Y = make_blobs(8, rng=np.random.default_rng(4))
USERS = [ToyUser(x=X, y=Y, cut=1)]


def _spec(**kw):
    return ScenarioSpec("x", (10.0,), (1.3,), (500.0,), **kw)


def _plan(c_total):
    batch = sample_rounds(replace(BP, rounds=1), np.random.default_rng(0),
                          np.full(BP.population, 500.0), 1)
    return plan_rows(batch, VGG19, c_total)


@pytest.mark.parametrize("field, call", [
    ("max_iters", lambda: OptimizerConfig(max_iters=0)),
    ("max_iters", lambda: OptimizerConfig(max_iters=2.5)),
    ("t_agg", lambda: OptimizerConfig(t_agg=-1.0)),
    ("t_agg", lambda: OptimizerConfig(t_agg=math.nan)),
    ("c_total", lambda: _plan(0.0)),
    ("c_total", lambda: _plan(math.inf)),
    ("name", lambda: ScenarioSpec(5, (10.0,), (1.3,), (500.0,))),
    ("comm_options", lambda: ScenarioSpec("x", (), (1.3,), (500.0,))),
    ("comp_options", lambda: ScenarioSpec("x", (10.0,), (0.0,), (500.0,))),
    ("data_options", lambda: ScenarioSpec("x", (10.0,), (1.3,), (math.inf,))),
    ("population", lambda: _spec(population=0)),
    ("selected_per_round", lambda: _spec(selected_per_round=0)),
    ("selected_per_round", lambda: _spec(population=5, selected_per_round=6)),
    ("rounds", lambda: _spec(rounds=0)),
    ("epochs", lambda: _spec(epochs=0)),
    ("server_tflops", lambda: _spec(server_tflops=0.0)),
    ("server_tflops", lambda: _spec(server_tflops=1e297)),
    ("seed", lambda: _spec(seed=-1)),
    ("kb_bytes", lambda: SimOptions(kb_bytes=0.0)),
    ("fixed_cut", lambda: run_simulation(BP, ("sfl",), VGG19, SimOptions(fixed_cut=0))),
    ("algorithms", lambda: run_simulation(BP, (), VGG19)),
    ("algorithms", lambda: run_simulation(BP, ("esfl", "gossip"), VGG19)),
    ("algorithms", lambda: run_simulation(BP, ("fl", "fl"), VGG19)),
    ("repetitions", lambda: convergence_study(VGG19, repetitions=0)),
    ("scales", lambda: convergence_study(VGG19, scales=(5, 0))),
    pytest.param("scales", lambda: convergence_study(VGG19, scales=(10, 20, 10)),
                 id="scales-repeated"),
    ("seed", lambda: convergence_study(VGG19, seed=-1)),
    ("rounds", lambda: esfl_train(NET, USERS, rounds=0)),
    ("eta", lambda: esfl_train(NET, USERS, rounds=1, eta=1.5)),
    ("rho0", lambda: esfl_train(NET, USERS, rounds=1, rho0=0.0)),
    ("rho0", lambda: esfl_train(NET, USERS, rounds=1, rho0=math.inf)),
    ("batch_size", lambda: esfl_train(NET, USERS, rounds=1, batch_size=0)),
    ("cut", lambda: esfl_train(NET, [ToyUser(x=X, y=Y, cut=2)], rounds=1)),
    ("epochs", lambda: esfl_train(NET, [ToyUser(x=X, y=Y, cut=1, epochs=0)], rounds=1)),
    ("bwd_multiplier", lambda: load_builtin("vgg19", bwd_multiplier=-1.0)),
    ("bytes_per_element", lambda: load_builtin("vgg19", bytes_per_element=math.nan)),
    # the magnitude range, 1e-20..1e20 in library units: below it, then above
    *(pytest.param(field, call, id=f"{field}-{side}-range") for field, side, call in (
        ("t_agg", "below", lambda: OptimizerConfig(t_agg=1e-21)),
        ("t_agg", "above", lambda: OptimizerConfig(t_agg=1e21)),
        ("c_total", "below", lambda: _plan(1e-21)),
        ("c_total", "above", lambda: _plan(1e21)),
        ("c_total", "below-equalize", lambda: equalize_min_max([1.0], [0.0], 1e-21)),
        ("c_total", "above-equalize", lambda: equalize_min_max([1.0], [0.0], 1e21)),
        ("comm_options", "below", lambda: ScenarioSpec("x", (10.0, 1e-21), (1.3,), (500.0,))),
        ("comm_options", "above", lambda: ScenarioSpec("x", (1e21,), (1.3,), (500.0,))),
        # TFLOP/s: the range is 1e-32..1e8
        ("comp_options", "below", lambda: ScenarioSpec("x", (10.0,), (1e-33,), (500.0,))),
        ("comp_options", "above", lambda: ScenarioSpec("x", (10.0,), (1.3, 1e9), (500.0,))),
        ("data_options", "below", lambda: ScenarioSpec("x", (10.0,), (1.3,), (1e-21,))),
        ("data_options", "above", lambda: ScenarioSpec("x", (10.0,), (1.3,), (500.0, 1e21))),
        ("server_tflops", "below", lambda: _spec(server_tflops=1e-33)),
        ("server_tflops", "above", lambda: _spec(server_tflops=1e9)),
        ("kb_bytes", "below", lambda: SimOptions(kb_bytes=1e-21)),
        ("kb_bytes", "above", lambda: SimOptions(kb_bytes=1e21)),
        ("bytes_per_element", "below", lambda: load_builtin("vgg19", bytes_per_element=1e-21)),
        ("bytes_per_element", "above", lambda: load_builtin("vgg19", bytes_per_element=1e21)),
        ("bwd_multiplier", "below", lambda: load_builtin("vgg19", bwd_multiplier=1e-21)),
        ("bwd_multiplier", "above", lambda: load_builtin("vgg19", bwd_multiplier=1e21)),
    )),
])
def test_entry_names_the_field(field, call):
    with pytest.raises(ConfigError) as info:
        call()
    assert isinstance(info.value, ValueError)
    assert info.value.field == field
    assert str(info.value) == f"{field} {info.value.problem}"
    assert info.value.problem.startswith("must ")


@pytest.mark.parametrize("field, call", [
    ("scales", lambda: convergence_study(VGG19, scales=(5, MAX_POPULATION + 1))),
    ("repetitions", lambda: convergence_study(VGG19, scales=(5, 10), repetitions=10**6 + 1)),
])
def test_study_caps_name_the_study_field(field, call):
    # checked under the study's names, not the sized scenario's
    test_entry_names_the_field(field, call)


def test_check_shows_the_first_refused_item():
    rule = (lambda v: v < 0, "hold numbers >= 0")
    check("options", (1.0, 2.0), rule, each=True)
    with pytest.raises(ConfigError, match=r"^options must hold numbers >= 0, not -2\.0$"):
        check("options", (1.0, -2.0, -3.0), rule, each=True)
    # a bool is no number, and an integer beyond the float range is not finite
    for rule, value in ((NUMBER, True), (INTEGER, False), (FINITE, 10**400), (FINITE, "1")):
        with pytest.raises(ConfigError):
            check("x", value, rule)
    check("x", 10**300, FINITE)


_RANGE = r"0 or within 1e-20\.\.1e20"
_USER = {"n_samples": 500.0, "compute_flops": 1.3e12, "up": 1e4, "down": 1e4, "epochs": 5}
_LAYER = {"param_count": 1.0, "fwd_flops": 1.0, "activation_count": 1.0}
# channels priced to about 1.2e-21 and 3e24 bytes/s: (bandwidth, noise density)
_CHANNEL = {1e-21: (1e-22, 1e-9), 1e21: (1e24, 1e-30)}


@pytest.mark.parametrize("value", [1e-21, 1e21], ids=["below", "above"])
@pytest.mark.parametrize("field", [*_USER, "channel", *_LAYER])
def test_value_outside_the_range_names_its_field(field, value):
    # a user's value names the user and field; a profile's, the layer and field
    if field in _USER:
        # epochs below the range is below 1, which the integer rule refuses first
        what = "an integer" if field == "epochs" and value < 1 else _RANGE
        with pytest.raises(ConfigError, match=rf"^user 0: {field} must be {what}"):
            UserBatch.checked(**{**_USER, field: value})
    elif field == "channel":
        bandwidth, noise = _CHANNEL[value]
        doc = {"users": [{"n_samples": 500, "tflops": 1.3, "channel": {
            "bandwidth_hz": bandwidth, "uplink_power_w": 1.0, "downlink_power_w": 1.0,
            "uplink_gain": 1.0, "downlink_gain": 1.0, "noise_density_w_per_hz": noise}}]}
        with pytest.raises(ConfigError, match=rf"^u\.json user 0: channel must be priced "
                                              rf"to link rates {_RANGE} bytes/s$"):
            read_users(doc, 1024.0, "u.json")
    else:
        with pytest.raises(ProfileError, match=rf"^layer 'A': {field} must be {_RANGE}, got "):
            LayerProfile(1, "A", **{**_LAYER, field: value})


def test_the_range_admits_its_ends():
    for v in (0.0, 1e-20, 1e20):
        OptimizerConfig(t_agg=v)
        load_builtin("vgg19", bwd_multiplier=v)
        LayerProfile(1, "A", v, v, v)
    UserBatch.checked(1e20, 1e-20, 1e-20, 1e20, epochs=1e20)
    # a scenario's link options must be > 0 as well: a drawn dead link
    # could never be planned
    ScenarioSpec("x", (1e-20, 1e20), (1e-32, 1e8), (0.0, 1e-20, 1e20),
                 server_tflops=1e-32)
    ScenarioSpec("x", (10.0,), (1.3,), (500.0,), server_tflops=1e8)


# ---------------------------------------------------------------------------
# The range's corners. A link rate the simulator draws is an option in KB/s
# times kb_bytes, two bounded values, so the rates reach 1e-40..1e40 bytes/s.

_CORNER = st.sampled_from([1e-20, 1.0, 1e20])
_SIZE = st.sampled_from([0.0, 1e-20, 1.0, 1e20])


@st.composite
def _corner_case(draw):
    layers = draw(st.lists(st.tuples(_SIZE, _SIZE, _SIZE), min_size=2, max_size=4))
    arch = load_architecture(
        io.StringIO("layer,params,fwd_flops,activation\n"
                    + "".join(f"L{j},{p!r},{f!r},{a!r}\n" for j, (p, f, a) in enumerate(layers))),
        bytes_per_element=draw(_CORNER), bwd_multiplier=draw(_SIZE))
    n_rows, n_users = draw(st.integers(1, 2)), draw(st.integers(1, 4))

    def column(values):
        return np.array(draw(st.lists(st.lists(values, min_size=n_users, max_size=n_users),
                                      min_size=n_rows, max_size=n_rows)))

    rate = st.sampled_from([1e-40, 1e-20, 1.0, 1e20, 1e40])
    batch = UserBatch(np.broadcast_to(np.arange(n_users), (n_rows, n_users)),
                      column(_SIZE), column(_CORNER), column(rate), column(rate),
                      column(st.sampled_from([1.0, 1e20])),
                      np.full((n_rows, n_users), math.inf), np.full((n_rows, n_users), math.inf))
    cfg = OptimizerConfig(epoch_objective=draw(st.booleans()), t_agg=draw(_SIZE))
    return arch, batch, draw(st.sampled_from([1e-20, 1e20])), cfg, draw(st.integers(1, 4))


@seed(20270)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_corner_case())
def test_no_objective_overflows_at_the_range_corners(case):
    arch, batch, c_total, cfg, fixed = case
    fixed = min(fixed, arch.num_layers)
    with np.errstate(over="raise"):
        plan = plan_rows(batch, arch, c_total, cfg)
        level, _ = exact_level(batch, arch, c_total, cfg)
        a, b = server_demand_terms(batch, plan.cuts, arch, cfg)
        _, equalized = equalize_min_max(a, b, c_total)
        objectives = [plan.objective, level, equalized]
        for r in range(batch.shape[0]):
            users = batch.rows(r)
            objectives += [
                esfl_round_time(plan.cuts[r], plan.server_compute[r], users, arch, cfg.t_agg),
                fl_round_time(users, arch, cfg.t_agg),
                sfl_round_time(users, arch, fixed, c_total, cfg.t_agg),
                sl_round_time(users, arch, fixed, c_total, cfg.t_agg),
            ]
    assert all(np.isfinite(x).all() for x in objectives)
