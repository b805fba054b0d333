import io
import math

import numpy as np
import pytest

from esfl import (
    ConfigError,
    ProfileError,
    builtin_profiles,
    load_architecture,
    load_builtin,
)
from esfl import workload

# Raw VGG19 table columns, used as an independent oracle for prefix sums.
VGG19_PARAMS = [0.0017, 0.0369, 0.0737, 0.147, 0.295, 0.590, 0.590, 0.590,
                1.180, 2.359, 2.359, 2.359, 2.359, 2.359, 2.359, 2.359,
                102.760, 16.777, 4.096, 0.0]
VGG19_FWD = [1.796, 37.749, 18.874, 37.749, 18.874, 37.749, 37.749, 37.749,
             18.874, 37.749, 37.749, 37.749, 9.437, 9.437, 9.437, 9.437,
             2.097, 0.524, 0.131, 0.0]


def _toy_doc(rows):
    text = "layer,params,fwd_flops,activation\n" + "\n".join(rows) + "\n"
    return io.StringIO(text)


class TestLoading:
    def test_vgg19_has_twenty_layers(self):
        arch = load_builtin("vgg19")
        assert arch.num_layers == 20

    def test_vgg19_first_row_values(self):
        arch = load_builtin("vgg19")
        first = arch.layers[0]
        assert first.name == "CONV1"
        assert first.param_count == 0.0017
        assert first.fwd_flops == 1.796
        assert first.activation_count == 0.0655

    def test_builtins_listed(self):
        assert builtin_profiles() == ("vgg13", "vgg16", "vgg19")

    def test_unknown_builtin(self):
        with pytest.raises(ProfileError):
            load_builtin("resnet50")

    def test_single_layer_rejected(self):
        with pytest.raises(ProfileError, match="single layer"):
            load_architecture(_toy_doc(["L1,1,1,1"]))

    def test_empty_document_rejected(self):
        with pytest.raises(ProfileError):
            load_architecture(io.StringIO("layer,params,fwd_flops,activation\n"))

    def test_missing_header_rejected(self):
        with pytest.raises(ProfileError, match="header"):
            load_architecture(io.StringIO("L1,1,1,1\nL2,1,1,1\n"))

    def test_malformed_value_names_line(self):
        doc = _toy_doc(["L1,1,1,1", "L2,abc,1,1"])
        with pytest.raises(ProfileError, match="line 3"):
            load_architecture(doc)

    def test_negative_value_rejected(self):
        with pytest.raises(ProfileError):
            load_architecture(_toy_doc(["L1,1,1,1", "L2,-1,1,1"]))

    def test_blank_fields_only_on_final_layer(self):
        with pytest.raises(ProfileError, match="final layer"):
            load_architecture(_toy_doc(["L1,,1,1", "L2,1,1,1"]))
        arch = load_architecture(_toy_doc(["L1,1,1,1", "Head,,,"]))
        assert arch.layers[-1].activation_count == 0.0


class TestUnits:
    def test_non_finite_units_rejected(self):
        # a NaN kappa made every compute figure NaN; a NaN or infinite
        # element size did the same to every byte count
        for field in ("bwd_multiplier", "bytes_per_element"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ConfigError, match=f"^{field} must be a finite number, "
                                                      f"not {value!r}$"):
                    load_builtin("vgg19", **{field: value})
        with pytest.raises(ConfigError, match="^bwd_multiplier must be >= 0, not -1.0$"):
            load_builtin("vgg19", bwd_multiplier=-1.0)
        with pytest.raises(ConfigError, match="^bytes_per_element must be > 0, not 0.0$"):
            load_builtin("vgg19", bytes_per_element=0.0)


class TestCutWorkload:
    """The per-cut arrays of ``ModelArchitecture``; entry l-1 describes cut l."""

    def test_prefix_sum_at_cut_two_without_backward(self):
        arch = load_builtin("vgg19", bwd_multiplier=0.0)
        assert arch.user_flops_by_cut[1] == pytest.approx((1.796 + 37.749) * 1e6,
                                                          rel=1e-12)

    def test_single_layer_cut_without_backward(self):
        arch = load_builtin("vgg19", bwd_multiplier=0.0)
        assert arch.user_flops_by_cut[0] == pytest.approx(1.796e6, rel=1e-12)

    def test_backward_multiplier_scales_compute(self):
        arch = load_builtin("vgg19")  # default kappa = 2
        assert arch.user_flops_by_cut[1] == pytest.approx(3 * (1.796 + 37.749) * 1e6,
                                                          rel=1e-12)

    def test_cut_at_last_layer_leaves_no_server_share(self):
        arch = load_builtin("vgg19")
        assert arch.total_compute_per_sample - arch.user_flops_by_cut[-1] == 0.0

    def test_activation_and_model_bytes(self):
        arch = load_builtin("vgg19")
        assert arch.act_bytes_by_cut[0] == pytest.approx(0.0655 * 4e6, rel=1e-12)
        assert arch.model_bytes_by_cut[0] == pytest.approx(0.0017 * 4e6, rel=1e-12)

    def test_memory_is_model_plus_batched_activations(self):
        arch = load_builtin("vgg19")
        mem = arch.model_bytes_by_cut[1] + 32 * arch.cum_act_bytes_by_cut[1]
        expected = (0.0017 + 0.0369) * 4e6 + 32 * (0.0655 + 0.0328) * 4e6
        assert mem == pytest.approx(expected, rel=1e-12)


class TestTotalCompute:
    def test_definition_matches_full_cut(self):
        for name in builtin_profiles():
            arch = load_builtin(name)
            assert arch.total_compute_per_sample == arch.user_flops_by_cut[-1]

    def test_vgg19_is_three_times_forward_sum(self):
        arch = load_builtin("vgg19")
        assert arch.total_compute_per_sample == pytest.approx(
            3 * sum(VGG19_FWD) * 1e6, rel=1e-12
        )

    def test_two_layer_toy(self):
        arch = load_architecture(_toy_doc(["A,0,10,0", "B,0,20,0"]),
                                 bwd_multiplier=1.0)
        assert arch.total_compute_per_sample == pytest.approx(60e6, rel=1e-12)


class TestInvariants:
    def test_monotone_prefix_quantities(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            rows = [
                f"L{j},{rng.uniform(0, 5)},{rng.uniform(0, 50)},{rng.uniform(0, 1)}"
                for j in range(n)
            ]
            arch = load_architecture(_toy_doc(rows))
            uc = arch.user_flops_by_cut
            mb = arch.model_bytes_by_cut
            assert np.all(np.diff(uc) >= 0)
            assert np.all(np.diff(mb) >= 0)

    def test_conservation_within_one_ulp(self):
        # user + (total - user) reconstructs the total exactly up to the
        # final rounding of the subtraction, i.e. one ulp of the total
        for name in builtin_profiles():
            arch = load_builtin(name)
            D = arch.total_compute_per_sample
            for u in arch.user_flops_by_cut:
                assert abs(u + (D - u) - D) <= math.ulp(D)

    def test_vgg19_model_bytes_total(self):
        arch = load_builtin("vgg19")
        assert arch.model_bytes_by_cut[-1] == pytest.approx(
            sum(VGG19_PARAMS) * 4e6, rel=1e-12
        )


_CUT_ARRAYS = ("user_flops_by_cut", "act_bytes_by_cut", "model_bytes_by_cut",
               "cum_act_bytes_by_cut")


class TestSharedProfiles:
    """A profile is shared by every plan priced with it, so nothing may
    change it; each shipped one is parsed once per unit convention."""

    @pytest.mark.parametrize("field", _CUT_ARRAYS)
    def test_cut_arrays_are_read_only(self, field):
        toy = load_architecture(_toy_doc(["A,1,1,1", "B,1,1,1"]))
        for arch in (load_builtin("vgg19"), toy):
            values = getattr(arch, field)
            before = values.copy()
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                values *= 2.0
            assert np.array_equal(getattr(arch, field), before)

    def test_builtins_are_parsed_once_per_convention(self, monkeypatch):
        parsed = []

        def counting(*args, **kwargs):
            parsed.append(kwargs)
            return load_architecture(*args, **kwargs)

        monkeypatch.setattr(workload, "_BUILTIN", {})
        monkeypatch.setattr(workload, "load_architecture", counting)
        arch = load_builtin("vgg19")
        assert load_builtin("vgg19") is arch
        assert load_builtin("vgg19", bytes_per_element=4.0, bwd_multiplier=2.0) is arch
        assert len(parsed) == 1
        # any other name or convention is parsed on its own, 0.0 and -0.0 too
        others = [load_builtin("vgg16"), load_builtin("vgg19", bytes_per_element=2.0),
                  load_builtin("vgg19", bwd_multiplier=0.0),
                  load_builtin("vgg19", bwd_multiplier=-0.0)]
        assert len(parsed) == 5
        assert len({id(a) for a in [arch, *others]}) == 5
        assert math.copysign(1.0, others[-1].bwd_multiplier) == -1.0
        assert load_builtin("vgg19", bwd_multiplier=-0.0) is others[-1]
        assert len(parsed) == 5

    def test_unknown_builtin_is_refused_every_time(self):
        for _ in range(2):
            with pytest.raises(ProfileError, match="^unknown built-in profile 'resnet50'; "
                                                   "available: vgg13, vgg16, vgg19$"):
                load_builtin("resnet50")
