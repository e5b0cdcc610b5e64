"""Golden tests: every family's measured datasets, byte for byte.

``dataset_digests_seed7.json`` pins the SHA-256 of ``Dataset.to_json()``
for the construction campaign and the evaluation grid of every registered
workload family under every protocol at seed 7 (the pipeline's default
noise), plus, per family under NS, one noise-off campaign and one 3-trial
median campaign with outliers.  The batch-composition oracle
(``tests/workloads/test_batch_composition.py``) compares a batch against
the scalar runner within one revision, so a change that moves both paths
alike passes it; these digests catch that.

The file was captured from the code before records were built from a
batch's phase block, by running this module as a script from the
repository root::

    PYTHONPATH=src python tests/golden/test_golden_datasets.py

which rewrites the JSON.  Recapture only for a deliberate change of the
measured numbers, and say which datasets moved and why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cluster.presets import kishimoto_cluster
from repro.hpl.driver import NoiseSpec
from repro.measure.campaign import run_campaign, run_evaluation
from repro.measure.trials import run_campaign_with_trials
from repro.workloads import create_workload, registered_workloads

GOLDEN_PATH = Path(__file__).parent / "dataset_digests_seed7.json"
SEED = 7
PROTOCOLS = ("basic", "nl", "ns")
TRIAL_NOISE = NoiseSpec(outlier_probability=0.2, outlier_factor=3.0)


def digest(dataset):
    return hashlib.sha256(dataset.to_json().encode()).hexdigest()


def measure(key):
    """The dataset a ``family/protocol/what`` key names, measured afresh."""
    family, protocol, what = key.split("/")
    workload = create_workload(family)
    plan = workload.plan(protocol)
    runner = workload.batch_runner()
    spec = kishimoto_cluster()
    if what == "campaign":
        return run_campaign(spec, plan, noise=NoiseSpec(), seed=SEED,
                            batch_runner=runner).dataset
    if what == "evaluation":
        return run_evaluation(spec, plan, noise=NoiseSpec(), seed=SEED,
                              batch_runner=runner)
    if what == "campaign-noise-off":
        return run_campaign(spec, plan, noise=None, seed=SEED,
                            batch_runner=runner).dataset
    if what == "campaign-trials3":
        return run_campaign_with_trials(spec, plan, trials=3, noise=TRIAL_NOISE,
                                        seed=SEED, batch_runner=runner).dataset
    raise KeyError(key)


def keys():
    out = []
    for family in registered_workloads():
        for protocol in PROTOCOLS:
            out += [f"{family}/{protocol}/campaign", f"{family}/{protocol}/evaluation"]
        out += [f"{family}/ns/campaign-noise-off", f"{family}/ns/campaign-trials3"]
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_every_family_and_protocol_is_pinned(golden):
    assert sorted(golden["digests"]) == sorted(keys())


@pytest.mark.parametrize("key", keys())
def test_dataset_bytes_unchanged(golden, key):
    assert digest(measure(key)) == golden["digests"][key], f"{key} moved"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(
            {"seed": SEED, "digests": {key: digest(measure(key)) for key in keys()}},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
