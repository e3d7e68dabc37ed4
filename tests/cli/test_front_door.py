"""The CLI reads the package's own tables instead of re-declaring them.

``repro churn run``'s trace flags are the knob rows of
``churn_options.TRACE_PARAMS``, so a knob and its flag cannot drift apart,
and the trace generator checks whatever the flags carry.  ``repro
rounds`` builds its instances through the campaign family registry; its
JSON is pinned byte for byte by ``rounds_golden.json``.
"""

import argparse
import json
import pathlib

import pytest

import repro.churn.traces as traces
from repro.churn_options import TRACE_PARAMS
from repro.cli.main import build_parser, main
from repro.schema import WHOLE

GOLDEN = pathlib.Path(__file__).with_name("rounds_golden.json")

#: ``churn run``'s flags that are not trace knobs.
CHURN_RUN_OWN_FLAGS = {
    "--help", "--kind", "--size", "--seed", "--unscheduled", "--defer",
    "--replan-budget", "--json",
}


def subparser(*names: str) -> argparse.ArgumentParser:
    parser = build_parser()
    for name in names:
        [verbs] = [action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
        parser = verbs.choices[name]
    return parser


class TestChurnFlagsAreTheKnobRows:
    def test_one_flag_per_knob_row_and_no_other(self):
        knobs = {row.name for row in TRACE_PARAMS if row.wire != WHOLE}
        flags = {
            option for action in subparser("churn", "run")._actions
            for option in action.option_strings if option.startswith("--")
        }
        assert flags - CHURN_RUN_OWN_FLAGS == {
            "--" + name.replace("_", "-") for name in knobs
        }
        assert len(knobs) == 6

    def test_each_flag_says_what_its_row_expects_and_defaults_to_none(self):
        actions = {action.dest: action for action in subparser("churn", "run")._actions}
        for row in TRACE_PARAMS:
            if row.wire != WHOLE:
                assert actions[row.name].help == row.expects
                assert actions[row.name].default is None


class TestChurnFlagsAreChecked:
    @pytest.mark.parametrize("flags, key", [
        (["--flows", "0"], "'flows'"),
        (["--cancel-prob", "7"], "'cancel_prob'"),
        (["--rate", "1e9", "--duration", "1e9"], "expected arrivals"),
    ])
    def test_a_bad_knob_is_a_usage_error_before_any_trace_work(
        self, monkeypatch, capsys, flags, key
    ):
        def no_generation(*args):
            raise AssertionError("the trace was generated before its knobs were checked")

        monkeypatch.setattr(traces, "_build_topology", no_generation)
        assert main(["churn", "run", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: churn trace params")
        assert key in captured.err


class TestRounds:
    def test_json_is_byte_identical_to_the_pinned_output(self, capsys):
        for command, expected in json.loads(GOLDEN.read_text()).items():
            main(command.split())
            assert capsys.readouterr().out == expected, command

    @pytest.mark.parametrize("step", ["0", "-2", "x"])
    def test_a_step_below_one_is_a_usage_error(self, capsys, step):
        with pytest.raises(SystemExit) as exit_:
            main(["rounds", "--n-min", "5", "--n-max", "10", "--step", step])
        assert exit_.value.code == 2
        assert "--step" in capsys.readouterr().err
