"""The benchmark artifacts' one writer: numbers measured from code the
stamped commit does not hold never overwrite an artifact."""

from __future__ import annotations

from _provenance import write


def _payload(src_dirty: bool) -> dict:
    return {"benchmark": "probe", "wall_seconds": 0.1, "results": {"x": 2},
            "provenance": {"git_sha": "abc", "src_dirty": src_dirty}}


def test_a_dirty_src_leaves_an_existing_artifact_byte_identical(tmp_path):
    out = tmp_path / "BENCH_probe.json"
    out.write_bytes(b'{"results": {"x": 1}}\n')
    before = out.read_bytes()
    write(_payload(src_dirty=True), out)
    assert out.read_bytes() == before


def test_a_clean_src_rewrites_the_artifact(tmp_path):
    out = tmp_path / "results" / "BENCH_probe.json"
    write(_payload(src_dirty=False), out)
    assert b'"x": 2' in out.read_bytes()
