"""The update request's defaults, and the refusals of its direct callers.

A key the body leaves out reads as what the app does with it: WayUp, the
app's own default match and the policy priority.  ``UpdateScenario``
calls :meth:`TransientUpdateApp.submit_update` without the REST route in
front of it, so the app itself must refuse what the route refuses.
"""

import pytest

from repro.controller.rules import POLICY_PRIORITY
from repro.errors import BadRequestError
from tests.rest.test_rest import api, figure1_body  # noqa: F401


def test_an_update_without_priority_match_or_algorithm_is_wayup_at_policy_priority(api):
    network, rest = api
    response = rest.handle("POST", "/update", figure1_body())
    assert response.status == 200, response.body
    assert response.body["algorithm"] == "wayup"
    execution = rest.update_queue.find_completed(response.body["update_id"])
    assert execution.metadata["algorithm"] == "wayup"
    mods = [mod for compiled_round in execution.compiled.rounds
            for dpid_mods in compiled_round.mods_by_dpid.values()
            for mod in dpid_mods]
    assert mods
    for mod in mods:
        assert mod.priority == POLICY_PRIORITY
        assert mod.match == rest.update_app.default_match
    installed = [entry for switch in network.switches.values()
                 for entry in switch.dump_flows()]
    assert any(entry["priority"] == POLICY_PRIORITY for entry in installed)


def test_a_direct_caller_gets_the_routes_refusal(api):
    network, rest = api
    request = {**figure1_body(), "interval": "soon", "algorithm": "wayup",
               "barriers": True}
    with pytest.raises(BadRequestError, match="'interval'"):
        rest.update_app.submit_update(request)
    assert not rest.update_app.submitted and not rest.update_queue.completed
