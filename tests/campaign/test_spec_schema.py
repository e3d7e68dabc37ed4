"""The campaign spec is read by its schema table: values it cannot mean
are refused, and every valid spec parses to the same campaign as before.

``bool("false")`` used to run a ``"verify": "false"`` spec *with*
verification, ``true`` passed for an int and ``Infinity`` for a limit.
The pinned hashes were computed by the ladder the table replaced.
"""

import json
import pathlib

import pytest

from repro.campaign.spec import CampaignSpec
from repro.errors import CampaignSpecError

ROOT = pathlib.Path(__file__).resolve().parents[2]

BASIC = {
    "name": "basic",
    "seed": 5,
    "families": [
        {"family": "reversal", "sizes": [6, 8]},
        {"family": "random-update", "sizes": [8], "repeats": 3},
    ],
    "schedulers": ["peacock", "oneshot"],
}

KNOBS = {
    "name": "knobs",
    "families": [{"family": "sawtooth", "sizes": (10, 14), "grid": {"block": (2, 4)},
                  "schedulers": ["greedy-slf"]}],
    "schedulers": ("peacock",),
    "properties": ["slf", "blackhole"],
    "verify": True, "cleanup": True,
    "timeout_s": 30, "mem_limit_mb": 512, "cpu_limit_s": 2.5,
    "seed": -3, "version": 1,
}

NULLS = {
    "name": "nulls",
    "families": [{"family": "reversal", "sizes": [6], "params": {}, "grid": {}}],
    "schedulers": ["optimal:rlf?time_limit_s=2"],
    "verify": False, "properties": [],
    "timeout_s": None, "mem_limit_mb": None, "cpu_limit_s": None,
}


@pytest.mark.parametrize("data, spec_hash", [
    (json.loads((ROOT / "examples/specs/smoke.json").read_text()),
     "ea625de858305140aa68da3e107d3bd0232af79191196098acd69528892d9b76"),
    (BASIC, "2a47b1ed6a78ef338796d6e45d87f1ea128d00a5daa5e7c985541cd446a4a281"),
    (KNOBS, "41a07744d511e932a417cb14d74b159bd926263ecb11136e0838463e098ba61f"),
    (NULLS, "1fd9dff78e8e9e01427e818a7003e0b21202d0fa2ca409ee63b6a677578d1841"),
])
def test_a_valid_spec_parses_to_the_same_campaign(data, spec_hash):
    spec = CampaignSpec.from_dict(data)
    assert spec.spec_hash == spec_hash
    assert spec.campaign_id == f"{data['name']}-{spec_hash[:10]}"
    assert CampaignSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()


def _family(**changes):
    return {**BASIC, "families": [{"family": "reversal", "sizes": [6], **changes}]}


@pytest.mark.parametrize("data, key", [
    ({**BASIC, "verify": "false"}, "verify"),
    ({**BASIC, "cleanup": "no"}, "cleanup"),
    ({**BASIC, "verify": 1}, "verify"),
    ({**BASIC, "seed": True}, "seed"),
    (_family(repeats=True), "repeats"),
    (_family(sizes=[True]), "sizes"),
    (_family(sizes=[6, True]), "sizes"),
    ({**BASIC, "timeout_s": float("inf")}, "timeout_s"),
    ({**BASIC, "mem_limit_mb": float("inf")}, "mem_limit_mb"),
    ({**BASIC, "cpu_limit_s": float("inf")}, "cpu_limit_s"),
    ({**BASIC, "timeout_s": float("nan")}, "timeout_s"),
    ({**BASIC, "timeout_s": True}, "timeout_s"),
])
def test_a_value_the_spec_cannot_mean_is_refused(data, key):
    with pytest.raises(CampaignSpecError) as refused:
        CampaignSpec.from_dict(data)
    assert repr(key) in str(refused.value)


@pytest.mark.parametrize("data", [None, [], "spec", 7])
def test_a_spec_or_family_entry_that_is_no_object_is_refused(data):
    with pytest.raises(CampaignSpecError, match="JSON object"):
        CampaignSpec.from_dict(data)
    with pytest.raises(CampaignSpecError, match="'families'"):
        CampaignSpec.from_dict({**BASIC, "families": [data]})
