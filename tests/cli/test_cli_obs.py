"""CLI tests for ``repro trace summarize`` and live campaign status."""

import json

import pytest

from repro.campaign import CampaignSpec
from repro.campaign.runner import run_cell
from repro.cli.main import build_parser, main
from repro.obs import configure_tracing, reset_global_tracer, span
from repro.rest.api import build_campaign_api
from repro.rest.http_binding import RestHttpServer
from tests.campaign.fabric_helpers import sealed

SPEC = {
    "name": "clitelem",
    "families": [{"family": "reversal", "sizes": [4]}],
    "schedulers": ["peacock"],
}


class TestParser:
    def test_trace_subcommand_registered(self):
        args = build_parser().parse_args(["trace", "summarize", "t.jsonl"])
        assert args.command == "trace"
        assert args.trace_command == "summarize"

    def test_status_watch_flags_registered(self):
        args = build_parser().parse_args([
            "campaign", "status", "cid",
            "--url", "http://127.0.0.1:1", "--watch", "--interval", "0.2",
        ])
        assert args.url == "http://127.0.0.1:1"
        assert args.watch is True
        assert args.interval == 0.2


class TestTraceSummarize:
    @pytest.fixture
    def trace_file(self, tmp_path):
        reset_global_tracer()
        path = tmp_path / "trace.jsonl"
        configure_tracing(path=path)
        with span("api.execute_request", scheduler="peacock"):
            with span("api.search"):
                pass
        reset_global_tracer()
        return path

    def test_table_output(self, trace_file, capsys):
        assert main(["trace", "summarize", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "api.execute_request" in out
        assert "api.search" in out
        assert "p95 ms" in out

    def test_json_output(self, trace_file, capsys):
        assert main(["trace", "summarize", str(trace_file), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        names = {row["name"] for row in rows}
        assert names == {"api.execute_request", "api.search"}
        for row in rows:
            assert row["count"] == 1

    def test_directory_input(self, trace_file, capsys):
        assert main(["trace", "summarize", str(trace_file.parent)]) == 0
        assert "api.search" in capsys.readouterr().out

    def test_empty_trace_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(["trace", "summarize", str(empty)]) == 1
        assert "no trace records" in capsys.readouterr().out


class TestCampaignStatusLive:
    @pytest.fixture
    def live(self, tmp_path):
        """A served campaign over real HTTP, worked to completion."""
        api = build_campaign_api(campaign_root=str(tmp_path))
        server = RestHttpServer(api, port=0)
        server.start()
        spec = CampaignSpec.from_dict(SPEC)
        api.campaigns.serve({"spec": spec.to_dict()})
        coordinator = api.campaigns.fabric(spec.campaign_id)
        worker_id = coordinator.register({"name": "wk"})["worker_id"]
        reply = coordinator.lease(worker_id, 10)
        for payload in reply["cells"]:
            record, timing = run_cell(payload)
            coordinator.submit(
                worker_id, reply["lease_id"], payload["cell_id"],
                record, timing, sealed(payload, record),
            )
        coordinator.close()
        yield server.url, spec.campaign_id
        server.stop()
        api.campaigns.close()

    def test_status_url_renders_worker_table(self, live, capsys):
        url, campaign_id = live
        code = main(["campaign", "status", campaign_id, "--url", url])
        out = capsys.readouterr().out
        assert code == 0
        assert campaign_id in out
        assert "1/1 cells" in out
        assert "wk" in out  # the worker row
        assert "leases_granted=" in out

    def test_watch_exits_when_finished(self, live, capsys):
        # the campaign is already finished, so --watch prints one frame
        # and returns instead of looping
        url, campaign_id = live
        code = main([
            "campaign", "status", campaign_id,
            "--url", url, "--watch", "--interval", "0.05",
        ])
        assert code == 0
        assert "cells/s" in capsys.readouterr().out

    def test_status_url_json(self, live, capsys):
        url, campaign_id = live
        code = main([
            "campaign", "status", campaign_id, "--url", url, "--json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["finished"] is True
        assert data["workers"][0]["cells_done"] == 1

    def test_watch_without_url_refused(self, tmp_path):
        with pytest.raises(SystemExit, match="--watch needs --url"):
            main(["campaign", "status", "cid", "--watch",
                  "--root", str(tmp_path)])

    def test_unknown_campaign_is_a_clean_error(self, live, capsys):
        url, _ = live
        code = main(["campaign", "status", "ghost", "--url", url])
        assert code != 0
        assert "404" in capsys.readouterr().err
