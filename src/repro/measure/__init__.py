"""Measurement campaigns: the runs the models are fitted to.

The paper fits its models to timed HPL runs over parameter grids
(Tables 2, 5 and 8) and accounts the measurement cost (Tables 3 and 6).
This subpackage owns:

* :mod:`repro.measure.record` / :mod:`repro.measure.dataset` —
  per-run measurement records with per-kind ``Ta``/``Tc`` breakdowns,
  filtering, and JSON/CSV (de)serialization;
* :mod:`repro.measure.grids` — the construction and evaluation grids of
  the Basic, NL and NS protocols;
* :mod:`repro.measure.campaign` — drives the simulator over a grid and
  accounts the simulated measurement cost.
"""

from repro.measure.campaign import CampaignResult, run_campaign
from repro.measure.dataset import Dataset
from repro.measure.grids import (
    CampaignPlan,
    basic_plan,
    evaluation_configs,
    nl_plan,
    ns_plan,
)
from repro.measure.record import KindMeasurement, MeasurementRecord

__all__ = [
    "CampaignPlan",
    "CampaignResult",
    "Dataset",
    "KindMeasurement",
    "MeasurementRecord",
    "basic_plan",
    "evaluation_configs",
    "nl_plan",
    "ns_plan",
    "run_campaign",
]
