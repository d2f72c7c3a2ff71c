import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from chipcarbon.breakdown import COMPONENTS
from chipcarbon.chips import ApplicationProfile, ChipKind
from chipcarbon.deployment import app_dev_cfp, operational_cfp_per_year
from chipcarbon.embodied import (
    design_cfp,
    eol_cfp,
    manufacturing_cfp,
    packaging_cfp,
    unit_embodied_cfp,
)
from chipcarbon.lifecycle import (
    asic_total_cfp,
    cumulative_timeline,
    fpga_total_cfp,
    n_fpga_required,
)
from chipcarbon.quantities import HOURS_PER_YEAR, Duration
from chipcarbon.scenario import Scenario, evaluate_scenario

from conftest import params_with
from oracle import oracle_asic_total, oracle_fpga_total, oracle_timeline, slots


def _apps(n, years=2.0, volume=1000, size=int(1e8), duty=None):
    return [ApplicationProfile(f"app{i}", size, Duration.from_years(years), volume,
                               duty_cycle=duty) for i in range(n)]


def _embodied_kg(chip, volume, params):
    """Design plus `volume` devices' manufacturing, packaging and EOL, by the unit functions."""
    return (design_cfp(params.design, chip.gates).value
            + volume * unit_embodied_cfp(chip, params).value)


def _one_app_kg(chip, app, params):
    """Total kg of one application on one device per unit, from the unit functions."""
    rate = operational_cfp_per_year(chip.peak_power, params.operation, app.duty_cycle).value
    return (_embodied_kg(chip, app.volume, params)
            + app.lifetime.to_years() * (rate * app.volume)
            + app_dev_cfp(chip.kind, 1, app.volume, params.appdev).value)


def _assert_matches_oracle(breakdown, oracle: dict, rel=1e-9):
    for component, expected in oracle.items():
        got = getattr(breakdown, component).value
        assert math.isclose(got, expected, rel_tol=rel, abs_tol=1e-9), (
            f"{component}: {got} != oracle {expected}")


class TestNFpgaRequired:
    def test_exact_fit(self):
        assert n_fpga_required(4_000_000, 4_000_000) == 1

    def test_ceiling(self):
        assert n_fpga_required(10_000_000, 4_000_000) == 3

    def test_minimum_one(self):
        assert n_fpga_required(1, 4_000_000) == 1

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            n_fpga_required(100, 0)


class TestAsicTotal:
    def test_empty_schedule(self, params, library):
        b = asic_total_cfp([], [], params)
        assert b.total.value == 0.0

    def test_single_app_identity(self, params, library):
        asic = library.domain("DNN").asic
        [app] = _apps(1)
        b = asic_total_cfp([app], asic, params)
        assert math.isclose(b.total.value, _one_app_kg(asic, app, params), rel_tol=1e-12)

    def test_identical_apps_scale(self, params, library):
        asic = library.domain("ImgProc").asic
        one = asic_total_cfp(_apps(1), asic, params).total.value
        five = asic_total_cfp(_apps(5), asic, params).total.value
        assert math.isclose(five, 5 * one, rel_tol=1e-12)

    def test_requires_asic_kind(self, params, library):
        with pytest.raises(ValueError, match="expected an ASIC"):
            asic_total_cfp(_apps(1), library.domain("DNN").fpga, params)

    def test_matches_event_oracle(self, params, library):
        asic = library.domain("Crypto").asic
        apps = _apps(3, years=1.5, volume=800, size=asic.gates)
        _assert_matches_oracle(asic_total_cfp(apps, asic, params),
                               oracle_asic_total(apps, [asic] * 3, params))


class TestFpgaTotal:
    def test_single_app_within_lifetime(self, params, library):
        fpga = library.domain("DNN").fpga
        [app] = _apps(1, size=fpga.gates)
        b = fpga_total_cfp([app], fpga, params, horizon=Duration.from_years(2.0))
        assert math.isclose(b.total.value, _one_app_kg(fpga, app, params), rel_tol=1e-12)

    def test_requires_fpga_kind(self, params, library):
        with pytest.raises(ValueError, match="expected an FPGA"):
            fpga_total_cfp(_apps(1), library.domain("DNN").asic, params)

    def test_second_generation_adds_exactly_one_fleet(self, params, library):
        fpga = library.domain("ImgProc").fpga
        apps = _apps(30, years=1.0, volume=2000, size=fpga.gates)
        with_repl = fpga_total_cfp(apps, fpga, params, horizon=Duration.from_years(30.0))
        without = fpga_total_cfp(apps, fpga, params, horizon=None)
        diff = with_repl.total.value - without.total.value
        fleet = 2000 * unit_embodied_cfp(fpga, params).value
        assert math.isclose(diff, fleet, rel_tol=1e-9)
        assert math.isclose(with_repl.design.value, without.design.value, rel_tol=1e-12)

    def test_fleet_sized_for_largest_app(self, params, library):
        fpga = library.domain("DNN").fpga
        small = ApplicationProfile("s", fpga.gates, Duration.from_years(1.0), 100)
        large = ApplicationProfile("l", fpga.gates, Duration.from_years(1.0), 700)
        b = fpga_total_cfp([small, large], fpga, params)
        per_unit = unit_embodied_cfp(fpga, params).value
        assert math.isclose(
            b.manufacturing.value + b.packaging.value + b.eol.value,
            700 * per_unit, rel_tol=1e-12)

    def test_matches_event_oracle(self, params, library):
        fpga = library.domain("DNN").fpga
        apps = _apps(4, years=1.0, volume=500, size=fpga.gates)
        _assert_matches_oracle(
            fpga_total_cfp(apps, fpga, params, horizon=Duration.from_years(4.0)),
            oracle_fpga_total(apps, fpga, params, horizon_years=4.0))


class TestOracleEquivalenceRandomized:
    def test_five_random_small_scenarios(self, params, library):
        rng = random.Random(20240229)
        domains = ["DNN", "ImgProc", "Crypto"]
        for _ in range(5):
            tc = library.domain(rng.choice(domains))
            n = rng.randint(1, 5)
            apps = _apps(n, years=rng.uniform(0.3, 3.0), volume=rng.randint(1, 1000),
                         size=tc.default_app_size_gates)
            horizon_years = rng.choice([None, sum(a.lifetime.to_years() for a in apps)])
            horizon = Duration.from_years(horizon_years) if horizon_years else None
            _assert_matches_oracle(
                asic_total_cfp(apps, tc.asic, params, horizon),
                oracle_asic_total(apps, [tc.asic] * n, params))
            _assert_matches_oracle(
                fpga_total_cfp(apps, tc.fpga, params, horizon),
                oracle_fpga_total(apps, tc.fpga, params, horizon_years))


class TestMonotonicity:
    def test_totals_nondecreasing_in_each_knob(self, params, library):
        tc = library.domain("DNN")
        base_apps = _apps(3, years=2.0, volume=1000, size=tc.default_app_size_gates)

        def totals(apps):
            return (fpga_total_cfp(apps, tc.fpga, params).total.value,
                    asic_total_cfp(apps, tc.asic, params).total.value)

        f0, a0 = totals(base_apps)
        for bumped in (
            _apps(4, years=2.0, volume=1000, size=tc.default_app_size_gates),
            _apps(3, years=3.0, volume=1000, size=tc.default_app_size_gates),
            _apps(3, years=2.0, volume=2000, size=tc.default_app_size_gates),
            _apps(3, years=2.0, volume=1000, size=tc.default_app_size_gates, duty=0.9),
        ):
            f1, a1 = totals(bumped)
            assert f1 >= f0 - 1e-9
            assert a1 >= a0 - 1e-9


class TestSymmetryDegenerateCase:
    def test_reuse_saves_exactly_recurring_embodied(self, library):
        # identical silicon, no development overheads: the FPGA advantage is
        # exactly the (n-1) recurring embodied costs
        params = params_with("""
appdev:
  frontend_months: 0.0
  backend_months: 0.0
  config_hours_fpga: 0.0
""")
        tc = library.domain("Crypto")  # area/power ratios are 1.0
        for n in (2, 4):
            apps = _apps(n, years=1.0, volume=1000, size=tc.default_app_size_gates)
            fpga = fpga_total_cfp(apps, tc.fpga, params).total.value
            asic = asic_total_cfp(apps, tc.asic, params).total.value
            c_emb = _embodied_kg(tc.asic, 1000, params)
            assert fpga < asic
            assert math.isclose(asic - fpga, (n - 1) * c_emb, rel_tol=1e-9)


class TestTimeline:
    def test_zero_horizon_single_point(self, params, library):
        tc = library.domain("DNN")
        apps = _apps(3, years=1.0, volume=1000, size=tc.default_app_size_gates)
        tl = cumulative_timeline(ChipKind.FPGA, apps, tc.fpga, params,
                                 Duration.hours(0.0), Duration.from_years(1.0))
        assert len(tl) == 1
        emb = _embodied_kg(tc.fpga, 1000, params)
        assert math.isclose(tl[0].cumulative.total.value, emb, rel_tol=1e-12)

        atl = cumulative_timeline(ChipKind.ASIC, apps, tc.asic, params,
                                  Duration.hours(0.0), Duration.from_years(1.0))
        first_emb = _embodied_kg(tc.asic, 1000, params)
        assert math.isclose(atl[0].cumulative.total.value, first_emb, rel_tol=1e-12)

    def test_interior_jump_count_matches_floor_rule(self, params, library):
        tc = library.domain("DNN")
        apps = _apps(40, years=1.0, volume=1000, size=tc.default_app_size_gates)
        horizon = Duration.from_years(40.0)  # not an exact lifetime multiple
        tl = cumulative_timeline(ChipKind.FPGA, apps, tc.fpga, params, horizon,
                                 Duration.from_years(0.5))
        jumps = 0
        for a, b in zip(tl, tl[1:]):
            if b.cumulative.manufacturing.value > a.cumulative.manufacturing.value + 1e-9:
                jumps += 1
        assert jumps == math.floor(40.0 / tc.fpga.chip_lifetime.to_years())

    def test_final_point_matches_totals_both_platforms(self, params, library):
        tc = library.domain("ImgProc")
        apps = _apps(7, years=1.3, volume=5000, size=tc.default_app_size_gates)
        horizon = Duration.from_years(7 * 1.3)
        step = Duration.from_years(0.7)
        ftl = cumulative_timeline(ChipKind.FPGA, apps, tc.fpga, params, horizon, step)
        atl = cumulative_timeline(ChipKind.ASIC, apps, tc.asic, params, horizon, step)
        ftot = fpga_total_cfp(apps, tc.fpga, params, horizon)
        atot = asic_total_cfp(apps, tc.asic, params, horizon)
        assert math.isclose(ftl[-1].cumulative.total.value, ftot.total.value, rel_tol=1e-9)
        assert math.isclose(atl[-1].cumulative.total.value, atot.total.value, rel_tol=1e-9)

    def test_cumulative_total_nondecreasing(self, params, library):
        tc = library.domain("DNN")
        apps = _apps(20, years=1.0, volume=1000, size=tc.default_app_size_gates)
        for kind, chip in ((ChipKind.FPGA, tc.fpga), (ChipKind.ASIC, tc.asic)):
            tl = cumulative_timeline(kind, apps, chip, params,
                                     Duration.from_years(20.0), Duration.from_years(0.25))
            totals = [p.cumulative.total.value for p in tl]
            assert all(b >= a - 1e-9 for a, b in zip(totals, totals[1:]))

    def test_step_must_be_positive(self, params, library):
        tc = library.domain("DNN")
        with pytest.raises(ValueError):
            cumulative_timeline(ChipKind.FPGA, _apps(1), tc.fpga, params,
                                Duration.from_years(1.0), Duration.hours(0.0))

    def test_replacement_reprogramming_option(self, library):
        params = params_with("options:\n  replacement_reprogramming: true\n")
        tc = library.domain("DNN")
        apps = _apps(30, years=1.0, volume=1000, size=tc.default_app_size_gates)
        horizon = Duration.from_years(30.0)
        with_repro = fpga_total_cfp(apps, tc.fpga, params, horizon)
        plain = params_with("")
        without = fpga_total_cfp(apps, tc.fpga, plain, horizon)
        # one replacement at 15 yr: reconfigure 1000 units at 0.1 h, 500 W, 0.4 kg/kWh
        assert math.isclose(with_repro.app_dev.value - without.app_dev.value,
                            1000 * 0.1 * 0.5 * 0.4, rel_tol=1e-9)
        assert math.isclose(
            oracle_fpga_total(apps, tc.fpga, params, 30.0)["app_dev"],
            with_repro.app_dev.value, rel_tol=1e-9)


PARAM_SETS = (params_with(""), params_with("options:\n  replacement_reprogramming: true\n"),
              params_with("options:\n  appdev_scaling: literal\n"))
# whole, dyadic and decimal lifetimes: the decimal ones drift by an ulp when summed
LIFETIMES = st.one_of(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 0.3, 1.032]),
                      st.floats(0.2, 4.0).map(lambda y: round(y, 3)))


def _draw_schedule(data, library, max_runs, max_len):
    """A heterogeneous schedule: runs of identical applications, volumes <= 1000.

    The FPGA's chip lifetime is drawn too, so that short schedules see re-purchases.
    """
    tc = library.domain(data.draw(st.sampled_from(["DNN", "ImgProc", "Crypto"])))
    chip_years = data.draw(st.sampled_from([None, 0.75, 1.0, 2.5, 3.3]))
    if chip_years is not None:
        fpga = dataclasses.replace(tc.fpga, chip_lifetime=Duration.from_years(chip_years))
        tc = dataclasses.replace(tc, fpga=fpga)
    apps = []
    for r in range(data.draw(st.integers(1, max_runs))):
        years = data.draw(LIFETIMES)
        volume = data.draw(st.integers(0, 1000))
        scale = data.draw(st.sampled_from([None, 0.5, 1.0, 2.5]))
        size = tc.default_app_size_gates if scale is None else int(scale * tc.fpga.gates)
        duty = data.draw(st.one_of(st.none(), st.floats(0.0, 1.0)))
        apps += [ApplicationProfile(f"r{r}a{i}", size, Duration.from_years(years), volume, duty)
                 for i in range(data.draw(st.integers(1, max_len)))]
    return tc, apps


def _draw_horizon(data, tc, apps):
    """No horizon, a typed one, or one on a slot start, a slot end or a re-purchase."""
    spans = slots(apps, [tc.asic] * len(apps))
    end_years = spans[-1][1] / HOURS_PER_YEAR
    life = tc.fpga.chip_lifetime.to_years()
    return data.draw(st.one_of(
        st.none(),
        st.floats(0.0, 1.2 * end_years),
        st.sampled_from([s / HOURS_PER_YEAR for span in spans for s in span]),
        st.integers(0, len(apps)).map(lambda k: k * apps[0].lifetime.to_years()),
        st.integers(1, 3).map(lambda k: k * life),
    ))


class TestKernelAgainstOracle:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_totals_match_oracle(self, library, data):
        params = data.draw(st.sampled_from(PARAM_SETS))
        tc, apps = _draw_schedule(data, library, max_runs=3, max_len=8)
        horizon_years = _draw_horizon(data, tc, apps)
        horizon = None if horizon_years is None else Duration.from_years(horizon_years)
        _assert_matches_oracle(asic_total_cfp(apps, tc.asic, params, horizon),
                               oracle_asic_total(apps, [tc.asic] * len(apps), params,
                                                 horizon_years))
        _assert_matches_oracle(fpga_total_cfp(apps, tc.fpga, params, horizon),
                               oracle_fpga_total(apps, tc.fpga, params, horizon_years))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_timeline_matches_oracle(self, library, data):
        params = data.draw(st.sampled_from(PARAM_SETS))
        tc, apps = _draw_schedule(data, library, max_runs=2, max_len=4)
        horizon_years = _draw_horizon(data, tc, apps) or 0.0
        step_years = max(data.draw(st.sampled_from([0.25, 0.5, 1.0, 0.3])), horizon_years / 24)
        horizon, step = Duration.from_years(horizon_years), Duration.from_years(step_years)
        for kind, chip, fpga in ((ChipKind.ASIC, tc.asic, None),
                                 (ChipKind.FPGA, tc.fpga, tc.fpga)):
            rows = cumulative_timeline(kind, apps, chip, params, horizon, step)
            expected = oracle_timeline(apps, [chip] * len(apps), fpga, params, horizon_years,
                                       step_years)
            assert [p.time.value for p in rows] == [t for t, _ in expected]
            for point, (_, booked) in zip(rows, expected):
                _assert_matches_oracle(point.cumulative, booked)


class TestChipTerms:
    @pytest.mark.parametrize("option", range(3), ids=["default", "reprogramming", "literal"])
    def test_one_application_is_bitwise_the_unit_functions(self, library, option):
        params = PARAM_SETS[option]
        for domain in ("DNN", "ImgProc", "Crypto"):
            tc = library.domain(domain)
            for chip, total in ((tc.asic, asic_total_cfp), (tc.fpga, fpga_total_cfp)):
                # many volumes: a change of operation order moves about one result in 100
                for volume in [1, 977, 10**6] + random.Random(domain).sample(range(10**7), 100):
                    duty = (None, 0.37, 1.0)[volume % 3]
                    [app] = _apps(1, years=1.7, volume=volume, size=tc.default_app_size_gates,
                                  duty=duty)
                    devices = volume * (1 if chip is tc.asic
                                        else n_fpga_required(app.size_gates, chip.gates))
                    rate = operational_cfp_per_year(chip.peak_power, params.operation,
                                                    duty) * devices
                    one_time = app_dev_cfp(chip.kind, 1, volume, params.appdev)
                    if params.options.appdev_scaling == "literal":
                        one_time = one_time * app.lifetime.to_years()
                    expected = (design_cfp(params.design, chip.gates).value,
                                manufacturing_cfp(chip, params).value * devices,
                                packaging_cfp(chip).value * devices,
                                eol_cfp(chip, params.eol).value * devices, one_time.value,
                                rate.value * app.lifetime.value / HOURS_PER_YEAR)
                    got = total([app], chip, params).as_dict()
                    assert [got[c].hex() for c in COMPONENTS] == [x.hex() for x in expected]

    def test_zero_volume_books_no_negative_zero(self, params, library):
        tc = library.domain("DNN")
        [app] = _apps(1, volume=0, size=tc.default_app_size_gates)
        for total, chip in ((asic_total_cfp, tc.asic), (fpga_total_cfp, tc.fpga)):
            assert math.copysign(1.0, total([app], chip, params).eol.value) == 1.0


class TestClosedFormKernel:
    def test_slot_starts_are_products_not_running_sums(self, params, library):
        # 31 running-sum additions of 1.032 y land an ulp past 31.992 y; the
        # product 31 * 1.032 y does not, so the 32nd application is booked,
        # as in the equivalent whole-year case
        scenario = Scenario("Crypto", n_app=42, lifetime_years=1.032, volume=1000,
                            horizon_years=31.992)
        _, asic = evaluate_scenario(scenario, params, library)
        design = design_cfp(params.design, library.domain("Crypto").asic.gates).value
        assert asic.design.value / design == pytest.approx(32.0, rel=1e-12)

    def test_cost_does_not_depend_on_app_count(self, params, library):
        one = evaluate_scenario(Scenario("DNN", n_app=1, lifetime_years=2.0, volume=1000),
                                params, library)[1]
        many = evaluate_scenario(Scenario("DNN", n_app=10**9, lifetime_years=2.0, volume=1000),
                                 params, library)[1]
        assert math.isclose(many.total.value, 10**9 * one.total.value, rel_tol=1e-9)

    def test_run_equals_the_applications_it_stands_for(self, params, library):
        tc = library.domain("ImgProc")
        apps = _apps(6, years=1.5, volume=700, size=tc.default_app_size_gates)
        run = [ApplicationProfile("run", tc.default_app_size_gates, Duration.from_years(1.5), 700,
                                  count=6)]
        horizon = Duration.from_years(5.2)
        for total, chip in ((asic_total_cfp, tc.asic), (fpga_total_cfp, tc.fpga)):
            assert total(run, chip, params, horizon) == total(apps, chip, params, horizon)

    @pytest.mark.parametrize("count", [0, 2])
    def test_oracle_refuses_compressed_entries(self, params, library, count):
        tc = library.domain("DNN")
        [app] = _apps(1, size=tc.default_app_size_gates)
        apps = [app, dataclasses.replace(app, count=count)]
        for oracle in (lambda: oracle_asic_total(apps, [tc.asic] * 2, params),
                       lambda: oracle_fpga_total(apps, tc.fpga, params, 4.0),
                       lambda: oracle_timeline(apps, [tc.asic] * 2, None, params, 4.0, 1.0)):
            with pytest.raises(ValueError, match=f"count={count}"):
                oracle()

    def test_run_checks_its_workload(self):
        for bad in (dict(count=-1), dict(size_gates=0), dict(duty_cycle=1.5),
                    dict(volume=-1), dict(lifetime=Duration.hours(0.0))):
            fields = dict(name="run", count=2, lifetime=Duration.from_years(1.0), volume=10,
                          size_gates=100, duty_cycle=None)
            with pytest.raises(ValueError):
                ApplicationProfile(**{**fields, **bad})

    def test_timeline_checks_chip_kind(self, params, library):
        tc = library.domain("DNN")
        with pytest.raises(ValueError, match="expected an FPGA"):
            cumulative_timeline(ChipKind.FPGA, _apps(2), tc.asic, params,
                                Duration.from_years(4.0), Duration.from_years(1.0))
