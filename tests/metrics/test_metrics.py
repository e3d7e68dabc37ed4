"""Tests for metrics collection and report rendering."""

import json

import pytest

from repro.metrics.collector import percentile
from repro.metrics.report import ascii_table, to_csv, to_json


class TestPercentile:
    def test_percentile_interpolation(self):
        values = [0.0, 10.0]
        assert percentile(values, 50.0) == 5.0
        assert percentile(values, 0.0) == 0.0
        assert percentile(values, 100.0) == 10.0

    def test_percentile_bounds(self):
        with pytest.raises(ValueError):
            percentile([1.0], 120.0)
        with pytest.raises(ValueError):
            percentile([], 50.0)


class TestReports:
    HEADERS = ["algo", "rounds", "time"]
    ROWS = [["wayup", 5, 12.345], ["oneshot", 1, 3.0]]

    def test_ascii_table_alignment(self):
        table = ascii_table(self.HEADERS, self.ROWS, title="demo")
        lines = table.splitlines()
        assert lines[0] == "demo"
        assert all(len(line) == len(lines[1]) for line in lines[1:])
        assert "wayup" in table and "12.345" in table

    def test_bool_rendering(self):
        table = ascii_table(["ok"], [[True], [False]])
        assert "yes" in table and "no" in table

    def test_csv(self):
        text = to_csv(self.HEADERS, self.ROWS)
        assert text.splitlines()[0] == "algo,rounds,time"
        assert "wayup,5,12.345" in text

    def test_json(self):
        records = json.loads(to_json(self.HEADERS, self.ROWS))
        assert records[0]["algo"] == "wayup"
        assert records[1]["rounds"] == 1
