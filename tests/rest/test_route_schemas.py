"""What each POST route refuses, and how: the route's schema table first,
then the codec or the topology -- never an exception out of the router.

The flow-entry routes read every key ``repro.openflow.flowmod.flow_entry``
reads; a bad value nested under ``match`` / ``actions`` / ``instructions``
is the OpenFlow codec's "bad flow entry", and a switch the network lacks
is a 404 as on ``GET /stats/flow/<dpid>``.  An update whose paths leave the
topology is a 400 naming the node or link, before anything is queued.
The campaign routes refuse values they cannot mean instead of coercing
them (``bool("false")``, a NaN lease TTL, a truncated ``lease_cells``).
"""

import math

import pytest

from repro.campaign.spec import CampaignSpec
from tests.rest.test_rest import api, figure1_body, to_switch_sent  # noqa: F401

GOOD_ENTRY = {"dpid": 5, "priority": 11, "match": {"in_port": 1},
              "actions": [{"type": "OUTPUT", "port": 2}]}


def _entry(**changes):
    return {**GOOD_ENTRY, **changes}


def _refused(response, status=400):
    assert response.status == status, response.body
    assert set(response.body) == {"error"}
    assert isinstance(response.body["error"], str)
    return response.body["error"]


class TestFlowEntryRoutes:
    @pytest.mark.parametrize("operation", ["add", "delete"])
    @pytest.mark.parametrize("body, named", [
        (_entry(actions="x"), "'actions'"),
        (_entry(actions=None), "'actions'"),
        (_entry(actions=[None]), "'actions'"),
        (_entry(actions=["x"]), "'actions'"),
        (_entry(actions=[{"type": "OUTPUT", "port": float("nan")}]), "output port"),
        (_entry(actions=[{"type": "OUTPUT", "port": float("inf")}]), "output port"),
        (_entry(actions=[{"type": "OUTPUT", "port": []}]), "output port"),
        (_entry(match={"in_port": []}), "'in_port'"),
        (_entry(match={"in_port": "1"}), "'in_port'"),
        (_entry(command=""), "'command'"),
        (_entry(command=99), "'command'"),
        (_entry(flags=None), "'flags'"),
        (_entry(flags=float("nan")), "'flags'"),
        (_entry(instructions="x"), "'instructions'"),
        (_entry(instructions=[None]), "'instructions'"),
        (_entry(instructions=[{"type": "APPLY_ACTIONS", "actions": "x"}]),
         "APPLY_ACTIONS"),
        (_entry(instructions=[{"type": "APPLY_ACTIONS", "actions": [None]}]),
         "action"),
    ])
    def test_a_junk_value_is_a_400_and_sends_nothing(self, api, operation,
                                                      body, named):
        network, rest = api
        before = to_switch_sent(network)
        error = _refused(rest.handle("POST", f"/stats/flowentry/{operation}", body))
        assert named in error
        network.flush()
        assert to_switch_sent(network) == before

    @pytest.mark.parametrize("operation", ["add", "delete"])
    @pytest.mark.parametrize("dpid", [999, "4242"])
    def test_a_switch_the_network_lacks_is_a_404(self, api, operation, dpid):
        network, rest = api
        before = to_switch_sent(network)
        error = _refused(rest.handle(
            "POST", f"/stats/flowentry/{operation}", _entry(dpid=dpid)
        ), status=404)
        assert str(dpid) in error
        assert to_switch_sent(network) == before


class TestUpdateOffTheTopology:
    @pytest.mark.parametrize("newpath, named", [
        ([1, 6, 2, 5, 3, 99999, 12], "99999"),  # a node the topology lacks
        ([1, 6, 2, 5, 3, 7, 12], "7->12"),  # two switches with no link
    ])
    def test_is_a_400_naming_the_node_or_link(self, api, newpath, named):
        network, rest = api
        before = to_switch_sent(network)
        body = {**figure1_body(), "newpath": newpath}
        error = _refused(rest.handle("POST", "/update/wayup", body))
        assert named in error
        network.flush()
        assert to_switch_sent(network) == before
        assert not rest.update_app.submitted

    @pytest.mark.parametrize("interval", [
        float("nan"), float("inf"), -float("inf"), True, -1,
    ])
    def test_interval_is_a_finite_number_at_least_zero(self, api, interval):
        network, rest = api
        before = to_switch_sent(network)
        body = {**figure1_body(), "interval": interval}
        assert "'interval'" in _refused(rest.handle("POST", "/update/wayup", body))
        network.flush()
        assert to_switch_sent(network) == before
        assert not rest.update_app.submitted


TINY_SPEC = {"name": "tiny", "families": [{"family": "reversal", "sizes": [4]}],
             "schedulers": ["oneshot"]}


class TestCampaignRoutes:
    @pytest.mark.parametrize("workers", [True, 0, 65, 1.0, "2"])
    def test_workers_is_an_int_in_range(self, api, workers):
        _, rest = api
        body = {"spec": TINY_SPEC, "workers": workers}
        assert "'workers'" in _refused(rest.handle("POST", "/campaigns", body))
        assert rest.handle("GET", "/campaigns").body == []

    @pytest.mark.parametrize("option, value", [
        ("lease_ttl_s", float("nan")),
        ("lease_ttl_s", float("inf")),
        ("heartbeat_timeout_s", float("nan")),
        ("escalation_factor", True),
        ("lease_cells", 2.5),
        ("lease_cells", 0),
        ("audit_fraction", 7),
        ("audit_fraction", -0.5),
        ("journal_compact_every", 0),
        ("poison_kill_threshold", 1.5),
    ])
    def test_serve_refuses_a_knob_it_cannot_mean(self, api, option, value):
        _, rest = api
        body = {"spec": TINY_SPEC, option: value}
        error = _refused(rest.handle("POST", "/campaigns/serve", body))
        assert repr(option) in error
        assert rest.handle("GET", "/campaigns/fabric").body == {"campaigns": []}

    def test_serve_takes_every_knob_in_range(self, api):
        _, rest = api
        body = {"spec": TINY_SPEC, "lease_ttl_s": 5, "heartbeat_interval_s": 0.5,
                "heartbeat_timeout_s": 0.0, "lease_cells": 3,
                "max_transient_retries": 0, "escalation_factor": 2.5,
                "journal_compact_every": 8, "audit_fraction": 1,
                "audit_seed": 4, "poison_kill_threshold": 2}
        response = rest.handle("POST", "/campaigns/serve", body)
        assert response.status == 200, response.body
        coordinator = rest.campaigns.fabric(CampaignSpec.from_dict(TINY_SPEC).campaign_id)
        assert (coordinator.lease_cells, coordinator.audit_fraction) == (3, 1.0)
        assert math.isclose(coordinator.lease_ttl_s, 5.0)
