"""Tests for the command-line interface."""

import json

import pytest

from repro.cli.main import build_parser, main


class TestParser:
    def test_subcommands_registered(self):
        parser = build_parser()
        for command in ("figure1", "schedule", "rounds", "topo", "serve"):
            args = parser.parse_args([command] + (
                ["--old", "1,2", "--new", "1,2"] if command == "schedule" else []
            ))
            assert args.command == command

    def test_campaign_subcommands_registered(self):
        parser = build_parser()
        for sub, extra in (("run", ["spec.json"]), ("status", ["x"]),
                           ("report", ["x"]), ("serve", ["spec.json"]),
                           ("work", ["http://127.0.0.1:1"])):
            args = parser.parse_args(["campaign", sub, *extra])
            assert args.command == "campaign"
            assert args.campaign_command == sub

    @pytest.mark.parametrize("argv", [
        ["campaign", "run", "spec.json", "-j", "0"],
        ["campaign", "run", "spec.json", "-j", "65"],
        ["campaign", "serve", "spec.json", "--local-workers", "65"],
        ["campaign", "serve", "spec.json", "--local-workers", "-1"],
    ])
    def test_worker_counts_past_the_bound_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args(argv)
        assert exit_.value.code == 2
        assert "must be an int in" in capsys.readouterr().err

    def test_campaign_work_has_no_batch_knob(self, capsys):
        # a finished cell goes back one ``submit`` at a time
        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args(
                ["campaign", "work", "http://127.0.0.1:1", "--batch-cells", "2"]
            )
        assert exit_.value.code == 2
        assert "--batch-cells" in capsys.readouterr().err


class TestCampaignWorkCommand:
    @pytest.mark.parametrize("tag, code", [
        (None, 0), ("drained", 0), ("quarantined", 1), ("gave_up_offline", 1),
    ])
    def test_flags_reach_the_worker_and_the_summary_sets_the_exit(
        self, monkeypatch, capsys, tag, code
    ):
        import repro.campaign.fabric as fabric

        seen = {}

        def fake_worker_main(url, campaign_id, **options):
            seen.update(url=url, campaign_id=campaign_id, **options)
            summary = {"worker_id": "w1-n", "cells_done": 3}
            if tag is not None:
                summary[tag] = True
            return summary

        monkeypatch.setattr(fabric, "worker_main", fake_worker_main)
        assert main([
            "campaign", "work", "http://127.0.0.1:1", "--campaign", "c1",
            "--name", "n", "--cells", "4", "--max-offline-s", "5",
            "--token", "s",
        ]) == code
        assert seen == {
            "url": "http://127.0.0.1:1", "campaign_id": "c1", "name": "n",
            "max_lease_cells": 4, "max_offline_s": 5.0, "token": "s",
        }
        out = capsys.readouterr().out
        assert out.startswith("w1-n: 3 cells done")
        assert (f"({tag})" in out) is (tag is not None)


class TestScheduleCommand:
    def test_wayup_verified(self, capsys):
        code = main([
            "schedule", "--old", "1,2,3,4,5", "--new", "1,4,3,2,5",
            "--wp", "3", "--algorithm", "wayup",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "verified: True" in out
        assert "post-waypoint" in out

    def test_oneshot_unverified_exit_code(self, capsys):
        code = main([
            "schedule", "--old", "1,2,3,4,5", "--new", "1,4,3,2,5",
            "--wp", "3", "--algorithm", "oneshot",
        ])
        assert code == 1
        assert "waypoint" in capsys.readouterr().out

    def test_json_output(self, capsys):
        code = main([
            "schedule", "--old", "1,2,3", "--new", "1,4,3",
            "--algorithm", "peacock", "--json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert data["schedule"]["algorithm"] == "peacock"

    def test_explicit_properties(self, capsys):
        code = main([
            "schedule", "--old", "1,2,3,4", "--new", "1,3,2,4",
            "--algorithm", "greedy-slf", "--properties", "slf,rlf",
        ])
        assert code == 0

    def test_bad_path_rejected(self):
        with pytest.raises(SystemExit):
            main(["schedule", "--old", "1,x", "--new", "1,2"])

    def test_generated_family_instance(self, capsys):
        code = main([
            "schedule", "--family", "slalom", "--n", "3",
            "--algorithm", "wayup", "--json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True

    def test_generated_random_family_seed_deterministic(self, capsys):
        outputs = []
        for _ in range(2):
            code = main([
                "schedule", "--family", "random-update", "--n", "10",
                "--seed", "7", "--algorithm", "peacock", "--json",
            ])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_alias_resolves_to_canonical_name(self, capsys):
        code = main([
            "schedule", "--old", "1,2,3,4", "--new", "1,3,2,4",
            "--algorithm", "greedy_slf", "--json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scheduler"] == "greedy-slf"
        assert data["schedule"]["algorithm"] == "greedy-slf"

    def test_parameterized_registry_spec_accepted(self, capsys):
        code = main([
            "schedule", "--old", "1,2,3,4", "--new", "1,3,2,4",
            "--algorithm", "combined:slf+blackhole", "--json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scheduler"] == "combined:slf+blackhole"

    def test_two_phase_through_registry(self, capsys):
        code = main([
            "schedule", "--old", "1,2,3,4,5", "--new", "1,4,3,2,5",
            "--wp", "3", "--algorithm", "two-phase",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "flip-ingress" in out
        assert "verified: True" in out

    def test_unknown_scheduler_is_a_clean_error(self, capsys):
        code = main([
            "schedule", "--old", "1,2,3", "--new", "1,4,3",
            "--algorithm", "magic",
        ])
        assert code == 2
        assert "unknown scheduler" in capsys.readouterr().err

    def test_unknown_property_is_a_clean_error(self, capsys):
        code = main([
            "schedule", "--old", "1,2,3", "--new", "1,4,3",
            "--algorithm", "peacock", "--properties", "bogus",
        ])
        assert code == 2
        assert "unknown properties" in capsys.readouterr().err

    @pytest.mark.parametrize("family, extra, algorithm", [
        ("reversal", [], "peacock"),
        ("sawtooth", [], "peacock"),
        ("fat-tree", [], "peacock"),
        ("random-update", [], "peacock"),
        ("random-update", ["--waypointed"], "wayup"),
        ("slalom", [], "wayup"),
    ])
    def test_default_algorithm_follows_the_waypoint(
        self, family, extra, algorithm, capsys
    ):
        code = main(["schedule", "--family", family, *extra, "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert data["scheduler"] == algorithm

    def test_family_and_paths_conflict(self):
        with pytest.raises(SystemExit):
            main(["schedule", "--family", "reversal", "--old", "1,2",
                  "--new", "1,2"])
        with pytest.raises(SystemExit):
            main(["schedule"])


class TestRoundsCommand:
    def test_reversal_table(self, capsys):
        code = main(["rounds", "--family", "reversal",
                     "--n-min", "6", "--n-max", "10", "--step", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "peacock" in out and "greedy" in out
        # greedy needs n-2 rounds at n=10
        assert "| 8" in out

    def test_slalom_includes_wayup(self, capsys):
        code = main(["rounds", "--family", "slalom",
                     "--n-min", "7", "--n-max", "9", "--step", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "wayup" in out

    def test_random_family_json_verifies(self, capsys):
        code = main(["rounds", "--family", "random-wp", "--seed", "3",
                     "--n-min", "8", "--n-max", "12", "--step", "2", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        records = json.loads(out)
        assert len(records) == 3
        assert all(record["ok"] for record in records)
        assert all("wayup" in record for record in records)
        # records key on the canonical registry spelling
        assert all("greedy-slf" in record for record in records)
        assert all("greedy_slf" not in record for record in records)

    def test_random_family_seed_changes_table(self, capsys):
        outputs = []
        for seed in ("1", "2"):
            assert main(["rounds", "--family", "random", "--seed", seed,
                         "--n-min", "10", "--n-max", "14", "--step", "2",
                         "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] != outputs[1]


CAMPAIGN_SPEC = {
    "name": "cli-mini",
    "seed": 2,
    "families": [
        {"family": "reversal", "sizes": [6, 8]},
        {"family": "random-update", "sizes": [8], "repeats": 2},
    ],
    "schedulers": ["peacock", "oneshot"],
}


class TestCampaignCommand:
    @pytest.fixture
    def spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(CAMPAIGN_SPEC))
        return path

    def test_run_status_report(self, tmp_path, spec_file, capsys):
        root = str(tmp_path / "runs")
        code = main(["campaign", "run", str(spec_file),
                     "-j", "2", "--root", root, "--json"])
        out = capsys.readouterr().out
        assert code == 0
        status = json.loads(out)
        assert status["done"] == 8 and status["remaining"] == 0
        campaign_id = status["campaign_id"]

        assert main(["campaign", "status", campaign_id,
                     "--root", root, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["done"] == 8

        assert main(["campaign", "report", campaign_id, "--root", root]) == 0
        table = capsys.readouterr().out
        assert "reversal" in table and "peacock" in table

        # a run-directory path works in place of the id
        assert main(["campaign", "status", f"{root}/{campaign_id}"]) == 0
        capsys.readouterr()

    def test_report_written_to_file(self, tmp_path, spec_file, capsys):
        root = str(tmp_path / "runs")
        main(["campaign", "run", str(spec_file), "--root", root, "--json"])
        campaign_id = json.loads(capsys.readouterr().out)["campaign_id"]
        out_file = tmp_path / "report.csv"
        assert main(["campaign", "report", campaign_id, "--root", root,
                     "--format", "csv", "--out", str(out_file)]) == 0
        assert out_file.read_text().startswith("family,")

    def test_unknown_campaign_errors(self, tmp_path, capsys):
        code = main(["campaign", "status", "ghost",
                     "--root", str(tmp_path), "--json"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_serve_with_local_worker_fleet(self, tmp_path, spec_file, capsys):
        # full fabric loop through the CLI: coordinator + HTTP server +
        # one spawned worker process, byte-identical to the pool runner
        root = str(tmp_path / "runs")
        main(["campaign", "run", str(spec_file),
              "--root", str(tmp_path / "base"), "--json"])
        baseline_status = json.loads(capsys.readouterr().out)
        code = main(["campaign", "serve", str(spec_file), "--root", root,
                     "--local-workers", "1", "--timeout", "120",
                     "--heartbeat-interval", "0.1", "--json"])
        out_lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        announce = json.loads(out_lines[0])
        campaign_id = announce["campaign_id"]
        assert announce["url"].startswith("http://127.0.0.1:")
        status = json.loads("\n".join(out_lines[1:]))
        assert status["done"] == 8 and status["remaining"] == 0
        assert status["fabric"]["pending"] == 0
        base = (tmp_path / "base" / campaign_id / "results.jsonl").read_bytes()
        fleet = (tmp_path / "runs" / campaign_id / "results.jsonl").read_bytes()
        assert fleet == base

    def test_verification_failure_exits_nonzero(self, tmp_path, capsys):
        spec = {
            "name": "unsafe",
            "families": [{"family": "reversal", "sizes": [6]}],
            "schedulers": ["oneshot"],
            "properties": ["rlf", "blackhole"],
            "verify": True,
        }
        path = tmp_path / "unsafe.json"
        path.write_text(json.dumps(spec))
        code = main(["campaign", "run", str(path),
                     "--root", str(tmp_path / "runs")])
        out = capsys.readouterr().out
        assert code == 1
        assert "verification FAILED" in out


class TestTopoCommand:
    def test_writes_json(self, tmp_path, capsys):
        out_file = tmp_path / "topo.json"
        code = main(["topo", "--kind", "figure1", "--hosts", "--out", str(out_file)])
        assert code == 0
        data = json.loads(out_file.read_text())
        assert len([n for n in data["nodes"] if n["kind"] == "switch"]) == 12


class TestFigure1Command:
    def test_json_run(self, capsys):
        code = main(["figure1", "--algorithm", "wayup", "--seed", "1", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["violations"] == 0
        assert data["rounds"] == 5

    def test_error_path(self, capsys):
        code = main(["figure1", "--algorithm", "wayup",
                     "--channel-latency", "warp:1"])
        assert code == 2
        assert "error" in capsys.readouterr().err
