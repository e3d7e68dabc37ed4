"""Churn trace params are checked when the spec is read, not when a cell runs."""

import time

import pytest

from repro.campaign import CampaignSpec
from repro.campaign.families import build_unit
from repro.churn_options import MAX_EXPECTED_ARRIVALS, MAX_TRACE_FLOWS, trace_params
from repro.errors import CampaignSpecError
from repro.rest.api import build_campaign_api

BAD_PARAMS = [
    {"rate_per_s": "abc"},
    {"cancel_prob": 7},
    {"rate_per_s": True},
    {"flows": -3},
    {"link_failures": 2.7},
]


def _spec(**entry):
    return {
        "name": "churn-params",
        "families": [{"family": "churn-wan", "sizes": [12], **entry}],
        "schedulers": ["peacock"],
    }


@pytest.mark.parametrize("params", BAD_PARAMS, ids=repr)
def test_a_bad_param_is_a_spec_error(params):
    with pytest.raises(CampaignSpecError, match=repr(next(iter(params)))):
        CampaignSpec.from_dict(_spec(params=params))


@pytest.mark.parametrize("params", BAD_PARAMS, ids=repr)
def test_a_bad_grid_value_is_a_spec_error(params):
    (key, value), = params.items()
    with pytest.raises(CampaignSpecError, match=repr(key)):
        CampaignSpec.from_dict(_spec(grid={key: [1, value]}))


@pytest.mark.parametrize("params", BAD_PARAMS, ids=repr)
def test_a_bad_param_is_a_400(tmp_path, params):
    api = build_campaign_api(campaign_root=str(tmp_path))
    response = api.handle("POST", "/campaigns", _spec(params=params))
    assert response.status == 400
    assert "churn trace params" in response.body["error"]


def test_valid_params_cast_to_the_defaults_types():
    assert trace_params({"rate_per_s": 20, "duration_ms": 100, "flows": 3,
                         "cancel_prob": 0, "link_failures": 0,
                         "waypoint_prob": 1}) == {
        "rate_per_s": 20.0, "duration_ms": 100.0, "flows": 3,
        "cancel_prob": 0.0, "link_failures": 0, "waypoint_prob": 1.0}


def test_int_and_float_spellings_build_the_same_trace():
    ints = build_unit("churn-wan", 12, {"rate_per_s": 20, "duration_ms": 100}, 5)
    floats = build_unit("churn-wan", 12, {"rate_per_s": 20.0, "duration_ms": 100.0}, 5)
    assert ints.trace.events == floats.trace.events
    assert ints.trace.params == floats.trace.params


@pytest.mark.parametrize("params", [
    {"flows": 10**7},
    {"duration_ms": 1e9},
    {"rate_per_s": 1e6, "duration_ms": 100},
], ids=repr)
def test_an_oversized_trace_is_a_quick_400(tmp_path, params):
    api = build_campaign_api(campaign_root=str(tmp_path))
    started = time.perf_counter()
    response = api.handle("POST", "/campaigns", _spec(params=params))
    assert time.perf_counter() - started < 0.05
    assert response.status == 400
    assert "churn trace params" in response.body["error"]


@pytest.mark.parametrize("params, grid", [
    # 1000/s is 400 arrivals over the default 400 ms, 20,000 over 20 s
    ({"rate_per_s": 1000}, {"duration_ms": [100, 20_000]}),
    # each axis alone stays under the bound at the other's default
    ({}, {"rate_per_s": [10, "1000"], "duration_ms": [100, 20_000]}),
], ids=["params-and-grid", "two-grid-axes"])
def test_a_cell_whose_knobs_combine_past_the_bound_is_refused(params, grid):
    with pytest.raises(CampaignSpecError, match="expected arrivals"):
        CampaignSpec.from_dict(_spec(params=params, grid=grid))


def test_the_bounds_themselves_are_valid():
    at_the_bounds = {"flows": MAX_TRACE_FLOWS, "rate_per_s": MAX_EXPECTED_ARRIVALS,
                     "duration_ms": 1000}
    assert trace_params(at_the_bounds)["flows"] == MAX_TRACE_FLOWS
    with pytest.raises(CampaignSpecError, match="'flows'"):
        CampaignSpec.from_dict(_spec(params={"flows": MAX_TRACE_FLOWS + 1}))
