"""Reading a ``GET /metrics`` body back, line by line."""

import re

#: A non-comment exposition line: metric name, optional labels, a value.
SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" (\+Inf|-?[0-9.e+-]+)$"
)
TYPE = re.compile(r"^# TYPE repro_[a-zA-Z0-9_:]+ (counter|histogram)$")


def parse_exposition(text: str) -> dict[str, float]:
    """``{'name{labels}': value}`` for every sample of ``text``; fails on
    a line that is neither a sample nor a ``# TYPE`` line, and on a
    series that appears twice."""
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if line.startswith("# "):
            assert TYPE.match(line), f"malformed line: {line!r}"
            continue
        assert SAMPLE.match(line), f"malformed line: {line!r}"
        series, _, value = line.rpartition(" ")
        assert series not in samples, f"series {series} appears twice"
        samples[series] = float(value)
    return samples
