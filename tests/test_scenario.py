import dataclasses
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chipcarbon import embodied, lifecycle
from chipcarbon.breakdown import COMPONENTS
from chipcarbon.scenario import (
    Scenario,
    SweepSpec,
    SweepVariable,
    estimate_platform,
    evaluate_scenario,
    find_crossovers,
    heatmap,
    sweep,
)

from conftest import params_with

CENTER = dict(n_app=5, lifetime_years=2.0, volume=1_000_000)


def _sweep(domain, variable, values, params, library, **fixed):
    spec = SweepSpec(variable, tuple(float(v) for v in values),
                     Scenario(domain, **{**CENTER, **fixed}))
    return sweep(spec, params, library)


class TestSweepSpecValidation:
    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            SweepSpec(SweepVariable.NUM_APPS, (), Scenario("DNN", **CENTER))

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SweepSpec(SweepVariable.APP_LIFETIME, (1.0, 1.0), Scenario("DNN", **CENTER))

    def test_num_apps_must_be_positive_integers(self):
        with pytest.raises(ValueError, match="positive integers"):
            SweepSpec(SweepVariable.NUM_APPS, (1.0, 2.5), Scenario("DNN", **CENTER))


class TestSweep:
    def test_single_sample_equals_direct_evaluation(self, params, library):
        pts = _sweep("DNN", SweepVariable.NUM_APPS, [3], params, library)
        assert len(pts) == 1
        fpga, asic = evaluate_scenario(Scenario("DNN", **{**CENTER, "n_app": 3}),
                                       params, library)
        assert pts[0].fpga.total.value == fpga.total.value
        assert pts[0].asic.total.value == asic.total.value

    def test_crypto_fpga_wins_from_second_sample(self, params, library):
        pts = _sweep("Crypto", SweepVariable.NUM_APPS, range(1, 9), params, library)
        assert pts[0].fpga.total.value > pts[0].asic.total.value
        for pt in pts[1:]:
            assert pt.fpga.total.value < pt.asic.total.value

    def test_imgproc_asic_wins_all_lifetimes(self, params, library):
        values = [round(0.2 + 0.1 * i, 1) for i in range(24)]
        pts = _sweep("ImgProc", SweepVariable.APP_LIFETIME, values, params, library)
        for pt in pts:
            assert pt.asic.total.value < pt.fpga.total.value

    def test_deterministic_repeat(self, params, library):
        a = _sweep("DNN", SweepVariable.APP_VOLUME, [1e3, 1e4, 1e5], params, library)
        b = _sweep("DNN", SweepVariable.APP_VOLUME, [1e3, 1e4, 1e5], params, library)
        for x, y in zip(a, b):
            assert x.fpga.total.value == y.fpga.total.value
            assert x.asic.total.value == y.asic.total.value


class TestFindCrossovers:
    def test_dnn_numapps_a2f_at_six(self, params, library):
        pts = _sweep("DNN", SweepVariable.NUM_APPS, range(1, 9), params, library)
        [c] = find_crossovers(pts, SweepVariable.NUM_APPS)
        assert c.kind == "A2F"
        assert c.value == 6.0
        assert c.bracket == (5.0, 6.0)

    def test_dnn_lifetime_f2a_near_1_6(self, params, library):
        values = [round(0.2 + 0.1 * i, 1) for i in range(24)]
        pts = _sweep("DNN", SweepVariable.APP_LIFETIME, values, params, library)
        [c] = find_crossovers(pts, SweepVariable.APP_LIFETIME)
        assert c.kind == "F2A"
        assert abs(c.value - 1.6) < 0.1
        assert c.bracket[0] < c.value < c.bracket[1]

    def test_constant_sign_yields_empty(self, params, library):
        values = [round(0.2 + 0.1 * i, 1) for i in range(24)]
        pts = _sweep("Crypto", SweepVariable.APP_LIFETIME, values, params, library)
        assert find_crossovers(pts, SweepVariable.APP_LIFETIME) == []

    def test_crossover_count_equals_sign_changes(self, params, library):
        for domain in ("DNN", "ImgProc", "Crypto"):
            values = [1e3 * 2 ** i for i in range(12)]
            pts = _sweep(domain, SweepVariable.APP_VOLUME, values, params, library)
            signs = [pt.fpga.total.value - pt.asic.total.value > 0 for pt in pts]
            changes = sum(a != b for a, b in zip(signs, signs[1:]))
            assert len(find_crossovers(pts, SweepVariable.APP_VOLUME)) == changes

    def test_interpolated_root_strictly_inside_bracket(self, params, library):
        values = [1e3 * 2 ** i for i in range(12)]
        pts = _sweep("ImgProc", SweepVariable.APP_VOLUME, values, params, library)
        for c in find_crossovers(pts, SweepVariable.APP_VOLUME):
            assert c.bracket[0] < c.value < c.bracket[1]

    def test_short_input(self, params, library):
        pts = _sweep("DNN", SweepVariable.NUM_APPS, [3], params, library)
        assert find_crossovers(pts, SweepVariable.NUM_APPS) == []

    def test_exact_tie_counts_as_fpga_favored(self):
        from chipcarbon.scenario import SweepPoint

        def bd(total):
            return (total, 0.0, 0.0, 0.0, 0.0, 0.0)

        # tie -> ASIC-favored reads as F2A (the tie sample already counts as
        # the FPGA side); ASIC-favored -> tie reads as A2F
        pts = [SweepPoint(1.0, bd(100.0), bd(100.0)), SweepPoint(2.0, bd(120.0), bd(100.0))]
        [c] = find_crossovers(pts, SweepVariable.NUM_APPS)
        assert c.kind == "F2A"
        pts = [SweepPoint(1.0, bd(120.0), bd(100.0)), SweepPoint(2.0, bd(100.0), bd(100.0))]
        [c] = find_crossovers(pts, SweepVariable.NUM_APPS)
        assert c.kind == "A2F"

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_a_non_finite_sample_is_refused(self, bad):
        from chipcarbon.errors import NonFiniteError
        from chipcarbon.scenario import SweepPoint

        finite = (1.0,) * len(COMPONENTS)
        pts = [SweepPoint(1.0, (2.0,) * len(COMPONENTS), finite),
               SweepPoint(2.0, finite, (1.0, bad, math.inf, 1.0, 1.0, 1.0))]
        with pytest.raises(NonFiniteError, match=f"CarbonMass must be finite, got {bad!r}"):
            find_crossovers(pts, SweepVariable.APP_LIFETIME)

    def test_tie_band_crossing_on_continuous_axis_stays_in_bracket(self):
        from chipcarbon.scenario import SweepPoint

        def bd(total):
            return (total, 0.0, 0.0, 0.0, 0.0, 0.0)

        # left diff is +1e-12 relative (inside the tie band, counted as FPGA);
        # naive interpolation of two positive diffs would leave the bracket
        pts = [SweepPoint(1.0, bd(100.0 + 1e-10), bd(100.0)),
               SweepPoint(2.0, bd(150.0), bd(100.0))]
        [c] = find_crossovers(pts, SweepVariable.APP_LIFETIME)
        assert c.kind == "F2A"
        assert c.value == 1.0


class TestHeatmap:
    def test_same_variable_axes_rejected(self, params, library):
        with pytest.raises(ValueError, match="distinct"):
            heatmap(SweepVariable.NUM_APPS, [1, 2], SweepVariable.NUM_APPS, [1, 2],
                    Scenario("DNN", **CENTER), params, library)

    def test_cells_match_one_dimensional_sweeps(self, params, library):
        x_values = [1.0, 2.0, 4.0, 8.0]
        y_values = [1e4, 1e5, 1e6]
        grid = heatmap(SweepVariable.NUM_APPS, x_values, SweepVariable.APP_VOLUME,
                       y_values, Scenario("DNN", **CENTER), params, library)
        for iy, vol in enumerate(y_values):
            pts = _sweep("DNN", SweepVariable.NUM_APPS, x_values, params, library,
                         volume=int(vol))
            for ix, pt in enumerate(pts):
                expected = pt.fpga.total.value / pt.asic.total.value
                assert math.isclose(grid.cells[iy][ix], expected, rel_tol=1e-12)

    def test_single_cell_equals_compare(self, params, library):
        grid = heatmap(SweepVariable.NUM_APPS, [5.0], SweepVariable.APP_LIFETIME, [2.0],
                       Scenario("DNN", **CENTER), params, library)
        fpga, asic = evaluate_scenario(Scenario("DNN", **CENTER), params, library)
        assert grid.cells[0][0] == fpga.total.value / asic.total.value

    def test_nine_million_row_needs_more_than_six_apps(self, params, library):
        grid = heatmap(SweepVariable.NUM_APPS, [float(n) for n in range(1, 9)],
                       SweepVariable.APP_VOLUME, [9e6],
                       Scenario("DNN", **CENTER), params, library)
        row = grid.cells[0]
        for n, ratio in zip(range(1, 9), row):
            if n <= 6:
                assert ratio >= 1.0
        assert any(r < 1.0 for r in row)  # and enough applications do flip it

    def test_identical_platform_ratios_all_below_one_for_two_apps(self, params, library):
        # Crypto-like 1.0/1.0 ratios: with 2+ applications every cell favors reuse
        grid = heatmap(SweepVariable.NUM_APPS, [2.0, 4.0, 8.0],
                       SweepVariable.APP_VOLUME, [1e3, 1e5, 1e6],
                       Scenario("Crypto", **CENTER), params, library)
        for row in grid.cells:
            assert all(cell < 1.0 for cell in row)

    def test_unity_crossings_interpolate_rows(self, params, library):
        grid = heatmap(SweepVariable.NUM_APPS, [float(n) for n in range(1, 9)],
                       SweepVariable.APP_LIFETIME, [2.0],
                       Scenario("DNN", **CENTER), params, library)
        [(y, x)] = grid.unity_crossings()
        assert y == 2.0
        assert 5.0 < x < 6.0


class TestBreakdownReport:
    def test_zero_volume_reports_design_only(self, params, library):
        scenario = Scenario("DNN", n_app=2, lifetime_years=1.0, volume=0)
        for b in evaluate_scenario(scenario, params, library):
            assert b.design.value > 0.0
            assert math.isclose(b.total.value, b.design.value, rel_tol=1e-12)

    def test_embodied_operational_split_closes(self, params, library):
        for b in evaluate_scenario(Scenario("DNN", **CENTER), params, library):
            ec, oc = b.embodied.value, b.deployment.value
            assert math.isclose(ec + oc, b.total.value, rel_tol=1e-12)


class TestEstimatePlatform:
    def test_industry_fpga_component_ordering(self, params, library):
        b = estimate_platform(library.industry("IndustryFPGA1"), 3, 2.0, 1_000_000, params)
        d = b.as_dict()
        assert d["operational"] > d["manufacturing"] > d["design"] > d["app_dev"] > 0

    def test_industry_asic_component_ordering(self, params, library):
        b = estimate_platform(library.industry("IndustryASIC2"), 1, 6.0, 1_000_000, params)
        d = b.as_dict()
        assert d["operational"] > d["manufacturing"] > d["design"]


def _bits(b):
    return [getattr(b, c).value.hex() for c in COMPONENTS]


SHARED_PARAMS = {
    "default": "",
    "replacement_reprogramming": "options:\n  replacement_reprogramming: true\n",
    "literal": "options:\n  appdev_scaling: literal\n",
}
AXES = {
    SweepVariable.NUM_APPS: [1.0, 3.0, 6.0, 40.0],
    SweepVariable.APP_LIFETIME: [0.3, 1.032, 2.0, 3.5],
    SweepVariable.APP_VOLUME: [0.0, 1e3, 4.2e5, 1e7],
    SweepVariable.HORIZON: [0.5, 7.0, 12.384, 90.0],
}

# Lifetimes whose multiples, in years and in hours, are exact floats, so a horizon at
# k lifetimes falls exactly on a slot start; 15 y is the bundled FPGA chip lifetime, so
# its multiples are re-purchase instants.
EXACT_LIFETIMES = (0.25, 0.5, 0.75, 1.0, 1.5, 2.5, 3.75, 5.0, 7.5)
_lifetimes = st.one_of(st.sampled_from(EXACT_LIFETIMES), st.floats(0.05, 20.0))
_horizons = st.one_of(
    st.builds(lambda k, life: k * life, st.integers(0, 60), st.sampled_from(EXACT_LIFETIMES)),
    st.integers(0, 8).map(lambda m: 15.0 * m),
    st.floats(0.0, 300.0),
)
AXIS_VALUES = {
    SweepVariable.NUM_APPS: st.integers(1, 60).map(float),
    SweepVariable.APP_LIFETIME: _lifetimes,
    SweepVariable.APP_VOLUME: st.one_of(st.just(0.0), st.integers(1, 10**7).map(float)),
    SweepVariable.HORIZON: _horizons,
}
OPTION_PAIRS = {
    f"{scaling}-reprogramming_{'on' if on else 'off'}":
        f"options:\n  appdev_scaling: {scaling}\n  replacement_reprogramming: {str(on).lower()}\n"
    for scaling in ("one_time", "literal") for on in (False, True)
}
_option_params: dict = {}


def _axis_samples(variable):
    return st.lists(AXIS_VALUES[variable], min_size=1, max_size=4, unique=True).map(
        lambda values: tuple(sorted(values)))


class TestSharedEvaluationPath:
    """Sweeps and heatmaps share the coefficients of one query and `evaluate_scenario`'s path."""

    @pytest.mark.parametrize("option", sorted(SHARED_PARAMS))
    @pytest.mark.parametrize("horizon", [None, 9.0])
    @pytest.mark.parametrize("variable", list(AXES), ids=lambda v: v.value)
    def test_sweep_samples_are_bitwise_evaluate_scenario(self, library, option, horizon,
                                                         variable):
        params = params_with(SHARED_PARAMS[option])
        fixed = Scenario("ImgProc", n_app=7, lifetime_years=1.5, volume=30_000,
                         horizon_years=horizon)
        for pt in sweep(SweepSpec(variable, tuple(AXES[variable]), fixed), params, library):
            scenario = _axis_value(fixed, variable, pt.value)
            fpga, asic = evaluate_scenario(scenario, params, library)
            assert (_bits(pt.fpga), _bits(pt.asic)) == (_bits(fpga), _bits(asic))

    @pytest.mark.parametrize("option", sorted(OPTION_PAIRS))
    @pytest.mark.parametrize("x, y", [(x, y) for x in SweepVariable for y in SweepVariable
                                      if x is not y], ids=lambda v: v.value)
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_every_sample_and_cell_is_bitwise_evaluate_scenario(self, library, option, x, y,
                                                                data):
        if option not in _option_params:
            _option_params[option] = params_with(OPTION_PAIRS[option])
        params = _option_params[option]
        fixed = Scenario(data.draw(st.sampled_from(["DNN", "ImgProc", "Crypto"])),
                         n_app=data.draw(st.integers(1, 60)),
                         lifetime_years=data.draw(_lifetimes),
                         volume=data.draw(st.integers(0, 10**7)),
                         horizon_years=data.draw(st.one_of(st.none(), _horizons)))
        xs, ys = data.draw(_axis_samples(x)), data.draw(_axis_samples(y))

        for variable, values in ((x, xs), (y, ys)):
            for pt in sweep(SweepSpec(variable, values, fixed), params, library):
                fpga, asic = evaluate_scenario(_axis_value(fixed, variable, pt.value),
                                               params, library)
                assert (_bits(pt.fpga), _bits(pt.asic)) == (_bits(fpga), _bits(asic))
        grid = heatmap(x, xs, y, ys, fixed, params, library)
        for iy, yv in enumerate(ys):
            for ix, xv in enumerate(xs):
                scenario = _axis_value(_axis_value(fixed, y, yv), x, xv)
                fpga, asic = evaluate_scenario(scenario, params, library)
                assert grid.cells[iy][ix].hex() == (fpga.total.value / asic.total.value).hex()

    @pytest.mark.parametrize("option", sorted(SHARED_PARAMS))
    @pytest.mark.parametrize("horizon", [None, 9.0])
    @pytest.mark.parametrize("x, y", [
        (SweepVariable.APP_VOLUME, SweepVariable.NUM_APPS),
        (SweepVariable.HORIZON, SweepVariable.APP_LIFETIME),
        (SweepVariable.NUM_APPS, SweepVariable.HORIZON),
    ], ids=lambda v: v.value)
    def test_heatmap_cells_are_bitwise_evaluate_scenario(self, library, option, horizon, x, y):
        params = params_with(SHARED_PARAMS[option])
        fixed = Scenario("DNN", n_app=5, lifetime_years=2.0, volume=1_000_000,
                         horizon_years=horizon)
        grid = heatmap(x, AXES[x], y, AXES[y], fixed, params, library)
        for iy, yv in enumerate(AXES[y]):
            for ix, xv in enumerate(AXES[x]):
                scenario = _axis_value(_axis_value(fixed, y, yv), x, xv)
                fpga, asic = evaluate_scenario(scenario, params, library)
                assert grid.cells[iy][ix].hex() == (fpga.total.value / asic.total.value).hex()

    def test_unit_terms_are_built_once_per_query(self, params, library, monkeypatch):
        calls = []
        for name in ("design_cfp", "manufacturing_cfp", "materials_cfp", "packaging_cfp",
                     "eol_cfp"):
            def counted(*args, _fn=getattr(embodied, name), **kwargs):
                calls.append(_fn)
                return _fn(*args, **kwargs)
            for module in (embodied, lifecycle):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)

        def count(n):
            calls.clear()
            heatmap(SweepVariable.APP_VOLUME, [1e3 * 2 ** i for i in range(n)],
                    SweepVariable.NUM_APPS, [float(k) for k in range(1, n + 1)],
                    Scenario("DNN", **CENTER), params, library)
            return len(calls)

        assert count(2) == count(20) > 0

    @pytest.mark.parametrize("option", sorted(SHARED_PARAMS))
    def test_timing_once_per_row_and_volume_once_per_column(self, library, option,
                                                            monkeypatch):
        timings, volumes = [], []
        timing, volume = lifecycle._Timing, lifecycle._volume
        monkeypatch.setattr(lifecycle, "_Timing", lambda *a: timings.append(a) or timing(*a))
        monkeypatch.setattr(lifecycle, "_volume", lambda *a: volumes.append(a) or volume(*a))
        xs, ys = [0.0] + [1e3 * 3 ** i for i in range(8)], [float(k) for k in range(1, 13)]
        grid = heatmap(SweepVariable.APP_VOLUME, xs, SweepVariable.NUM_APPS, ys,
                       Scenario("DNN", **CENTER, horizon_years=31.0),
                       params_with(SHARED_PARAMS[option]), library)
        assert len(grid.cells) * len(grid.cells[0]) == len(ys) * len(xs)
        assert len(timings) == len(ys)  # both platforms share a sample's timing part
        assert len(volumes) == 2 * len(xs)  # one volume part per platform and column

    @pytest.mark.parametrize("variable, bad, message", [
        (SweepVariable.APP_LIFETIME, -1.0, "lifetime_years must be positive"),
        (SweepVariable.APP_LIFETIME, math.inf, "years must be finite"),
        (SweepVariable.APP_VOLUME, -5.0, "volume must be >= 0"),
        (SweepVariable.HORIZON, -2.0, "years must be non-negative"),
    ])
    def test_invalid_sample_fails_with_the_scenario_message(self, params, library, variable,
                                                            bad, message):
        fixed = Scenario("DNN", **CENTER)
        with pytest.raises(ValueError, match=message):
            evaluate_scenario(_axis_value(fixed, variable, bad), params, library)
        values = (bad, 1e9) if bad < 0 else (1.0, bad)
        with pytest.raises(ValueError, match=message):
            sweep(SweepSpec(variable, values, fixed), params, library)
        other = SweepVariable.NUM_APPS
        for x, y in ((variable, other), (other, variable)):
            xs = values if x is variable else (1.0, 2.0)
            ys = values if y is variable else (1.0, 2.0)
            with pytest.raises(ValueError, match=message):
                heatmap(x, xs, y, ys, fixed, params, library)


def _axis_value(scenario, variable, value):
    """`scenario` with one sweep variable set, the way a sweep sample sets it."""
    field, convert = {
        SweepVariable.NUM_APPS: ("n_app", int),
        SweepVariable.APP_LIFETIME: ("lifetime_years", float),
        SweepVariable.APP_VOLUME: ("volume", lambda v: int(round(v))),
        SweepVariable.HORIZON: ("horizon_years", float),
    }[variable]
    return dataclasses.replace(scenario, **{field: convert(value)})
