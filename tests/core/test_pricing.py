"""One pricing rule: every site that prices a cap agrees with
:meth:`CapFactors.effect` bit for bit (``==``, never ``approx``).

The projection (Tables V/VI), the serving decision, the per-job advisor,
the budget planner's slowdown and the Fig 10 heatmap each keep their own
denominators and selection rules; the MI/CI savings and the delay
weight they score must be the one rule's.
"""

import numpy as np
import pytest

from repro import units
from repro.core.characterization import paper_factors
from repro.core.heatmap import compute_heatmaps
from repro.core.histogram import StreamingHistogram
from repro.core.join import CampaignCube
from repro.core.projection import project_savings
from repro.policy.advisor import CapAdvisor
from repro.policy.budget import job_slowdown_pct
from repro.policy.fingerprint import JobFingerprint
from repro.serve.objectives import decide_cap, objective_names

#: (domain, class, region) energies in J; regions are (latency, MI, CI,
#: boost).
ENERGY = np.array([
    [[1.1e9, 3.7e9, 5.3e9, 0.4e9], [0.2e9, 2.9e9, 0.7e9, 0.0]],
    [[0.6e9, 0.8e9, 4.1e9, 0.9e9], [0.3e9, 1.3e9, 2.2e9, 0.1e9]],
])
#: GPU-hours, deliberately not proportional to the energies.
HOURS = np.array([
    [[410.0, 730.0, 530.0, 20.0], [90.0, 310.0, 70.0, 0.0]],
    [[260.0, 95.0, 380.0, 45.0], [120.0, 170.0, 190.0, 5.0]],
])
FACTORS = paper_factors("frequency")


def _cube() -> CampaignCube:
    hist = StreamingHistogram()
    hist.add(np.array([100.0, 300.0, 500.0]))
    return CampaignCube(
        domains=["X", "Y"],
        classes=["A", "B"],
        energy_j=ENERGY.copy(),
        gpu_hours=HOURS.copy(),
        histogram=hist,
        domain_histograms={"X": hist, "Y": hist},
    )


def _fingerprint(region: np.ndarray) -> JobFingerprint:
    return JobFingerprint(
        job_id=7, domain="X", size_class="A", num_nodes=4,
        gpu_hours=float(HOURS.sum()), energy_j=float(region.sum()),
        region_hours=HOURS.sum(axis=(0, 1)), region_energy_j=region,
    )


def test_the_rule_on_a_vector_and_on_a_stack():
    region = ENERGY[0, 0]
    for cap in FACTORS.caps():
        f_ci, f_mi = FACTORS.energy_at(cap)
        rt_ci, rt_mi = FACTORS.runtime_at(cap)
        mi, ci, delay = FACTORS.effect(cap, region)
        assert mi == region[1] * (1.0 - f_mi)
        assert ci == region[2] * (1.0 - f_ci)
        assert delay == (
            region[2] * max(rt_ci - 1.0, 0.0)
            + region[1] * max(rt_mi - 1.0, 0.0)
        )
        # A stack is priced cell by cell with the same arithmetic.
        stack = FACTORS.effect(cap, ENERGY)
        for got, want in zip(stack, (mi, ci, delay)):
            assert got.shape == ENERGY.shape[:2]
            assert got[0, 0] == want


@pytest.mark.parametrize("campaign_mwh", [None, 16820.0])
@pytest.mark.parametrize("weighting", ["energy", "gpu_hours"])
def test_projection(campaign_mwh, weighting):
    cube = _cube()
    total_j = cube.total_energy_j
    scale = (
        1.0 if campaign_mwh is None else units.mwh(campaign_mwh) / total_j
    )
    energy = cube.region_energy_j() * scale
    table = project_savings(
        cube, FACTORS, campaign_energy_mwh=campaign_mwh,
        dt_weighting=weighting,
    )
    assert [row.cap for row in table.rows] == FACTORS.caps()
    for row in table.rows:
        mi, ci, delay = FACTORS.effect(row.cap, energy)
        if weighting == "energy":
            w_total = total_j * scale
        else:
            _, _, delay = FACTORS.effect(row.cap, cube.region_gpu_hours())
            w_total = cube.total_gpu_hours
        assert row.mi_mwh == units.to_mwh(mi)
        assert row.ci_mwh == units.to_mwh(ci)
        assert row.total_mwh == units.to_mwh(ci + mi)
        assert row.savings_pct == 100.0 * (ci + mi) / (total_j * scale)
        assert row.runtime_increase_pct == 100.0 * delay / w_total


def test_decide_cap():
    region = ENERGY.sum(axis=(0, 1))
    base_j = float(region.sum())
    capped = 0
    for objective in objective_names():
        for budget in (0.0, 5.0, 50.0):
            d = decide_cap(
                region, FACTORS, objective=objective,
                max_slowdown_pct=budget,
            )
            if d.cap is None:
                continue
            capped += 1
            mi, ci, delay = FACTORS.effect(d.cap, region)
            assert d.saving_j == float(ci + mi)
            assert d.projected_energy_j == base_j - float(ci + mi)
            assert d.runtime_increase_pct == 100.0 * float(delay) / base_j
    assert capped > 0


def test_advisor_and_budget_slowdown():
    region = ENERGY[1].sum(axis=0)
    fp = _fingerprint(region)
    advisor = CapAdvisor(FACTORS)
    for cap in FACTORS.caps():
        mi, ci, delay = FACTORS.effect(cap, region)
        saving, slowdown = advisor.expected_outcome(fp, cap)
        assert saving == mi + ci
        assert slowdown == 100.0 * delay / fp.energy_j
        assert job_slowdown_pct(fp, FACTORS, cap) == (
            100.0 * delay / float(region.sum())
        )
    assert job_slowdown_pct(fp, FACTORS, None) == 0.0


@pytest.mark.parametrize("campaign_mwh", [None, 16820.0])
def test_heatmap(campaign_mwh):
    cube = _cube()
    scale = (
        1.0 if campaign_mwh is None
        else units.mwh(campaign_mwh) / cube.total_energy_j
    )
    for cap in FACTORS.caps():
        heatmaps = compute_heatmaps(
            cube, FACTORS, cap=cap, campaign_energy_mwh=campaign_mwh
        )
        mi, ci, _ = FACTORS.effect(cap, cube.busy_view().energy_j * scale)
        assert np.array_equal(heatmaps.savings_mwh, units.to_mwh(ci + mi))
