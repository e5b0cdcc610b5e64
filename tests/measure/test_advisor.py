"""Tests for the campaign advisor."""

from dataclasses import replace


from repro.hpl.driver import NoiseSpec
from repro.measure.advisor import SAFE_EXTRAPOLATION, advise
from repro.measure.campaign import run_campaign
from repro.measure.grids import basic_plan, custom_plan, nl_plan, ns_plan
from repro.workloads import create_workload, registered_workloads


class TestAdvisor:
    def test_basic_plan_is_sound(self, spec):
        report = advise(spec, basic_plan())
        assert report.ok
        codes = {f.code for f in report.findings}
        # Basic extrapolates 6400 -> 9600: worth an info, nothing more
        assert "extrapolation" in codes
        assert all(f.severity != "fatal" for f in report.findings)
        # athlon has 1 PE -> composed P-T models, flagged as info
        assert "composed-pt" in codes

    def test_ns_plan_is_fatally_flagged(self, spec):
        """The advisor catches the paper's Table 9 disaster *before* any
        measurement is taken."""
        report = advise(spec, ns_plan())
        assert not report.ok
        fatal_codes = {f.code for f in report.fatal}
        assert "extrapolation" in fatal_codes
        # NS also has exactly 4 sizes -> interpolation warning
        assert any(f.code == "interpolation-fit" for f in report.warnings)

    def test_nl_plan_passes_with_warnings(self, spec):
        report = advise(spec, nl_plan())
        assert report.ok
        assert any(f.code == "interpolation-fit" for f in report.warnings)

    def test_summa_footprint_flags_paging(self, spec):
        report = advise(spec, nl_plan(), workload="summa")
        assert not report.ok
        assert any(f.code == "paging-runs" for f in report.fatal)
        # and the HPL footprint on the same plan does not page
        assert not any(f.code == "paging-runs" for f in advise(spec, nl_plan()).findings)

    def test_too_few_sizes_fatal(self, spec):
        plan = replace(basic_plan(), construction_sizes=(400, 800, 1200))
        report = advise(spec, plan)
        assert any(f.code == "too-few-sizes" for f in report.fatal)

    def test_cost_bound_is_a_lower_bound_scale(self, spec):
        """The peak-rate bound must be below the simulated truth but on the
        same order of magnitude — for every family, from its own flop count."""
        for tag in registered_workloads():
            family = create_workload(tag)
            plan = family.plan("basic")
            report = advise(spec, plan, workload=tag)
            actual = run_campaign(
                spec, plan, noise=NoiseSpec(), seed=11,
                batch_runner=family.batch_runner(),
            ).total_cost_s
            assert report.estimated_cost_s < actual, tag
            assert report.estimated_cost_s > actual / 10, tag

    def test_render_mentions_everything(self, spec):
        text = advise(spec, ns_plan()).render()
        assert "FATAL" in text
        assert "estimated measurement cost" in text

    def test_custom_plan_three_kind(self):
        from repro.cluster.presets import synthetic_cluster

        spec = synthetic_cluster([0.3, 0.6, 1.2], nodes_per_kind=2)
        plan = custom_plan(spec, (800, 1600, 2400, 3200, 4800), (3200,))
        report = advise(spec, plan)
        assert report.ok

    def test_safe_extrapolation_matches_paper_boundary(self):
        # NL: 6400/9600 above the line; NS: 1600/9600 far below it
        assert 6400 / 9600 > SAFE_EXTRAPOLATION > 1600 / 9600
