"""The correctness gate: wrong bytes count in failed_ops and suppress the
metrics; a clean run computes every metric BENCHMARK.json lists."""

import json
import time
from pathlib import Path

import pytest

import run
import workloads
from workloads import Certify, Ingest, Rebuild, Session

ROOT = Path(__file__).resolve().parents[2]


def session(tmp_path) -> Session:
    return Session(ROOT, tmp_path, time.monotonic() + 120)


def small(name: str):
    return {"ingest": Ingest(q=2, t=2, m=8, size=3000),
            "rebuild": Rebuild(q=2, t=2, size=3000),
            "certify": Certify(q=2, t=2, trials=1)}[name]


def flip_last_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x01
    path.write_bytes(bytes(data))


def corrupt_after(command: str, target, monkeypatch) -> None:
    real = workloads.run_child

    def corrupting(sess, args, traced):
        child = real(sess, args, traced)
        if args[0] == command:
            flip_last_byte(target(sess, args))
        return child

    monkeypatch.setattr(workloads, "run_child", corrupting)


def test_corrupted_decode_output_is_a_failed_op(tmp_path, monkeypatch):
    corrupt_after("decode", lambda sess, args: Path(args[1]), monkeypatch)
    result = run.run_workload(small("ingest"), session(tmp_path), seed=1, seconds=0,
                              trace=False)
    assert result["failed"] >= 1
    assert any("decoded bytes differ" in f for f in result["failures"])
    assert result["end_to_end"] == {}


def test_corrupted_repaired_shard_is_a_failed_op(tmp_path, monkeypatch):
    def rebuilt(sess, args):
        i, theta = args[args.index("--node") + 1].split(",")
        return sess.store / f"shard_{i}_{theta}.msrc"

    corrupt_after("repair", rebuilt, monkeypatch)
    result = run.run_workload(small("rebuild"), session(tmp_path), seed=1, seconds=0,
                              trace=False)
    assert result["failed"] >= 1
    assert any("rebuilt shard differs" in f for f in result["failures"])
    assert result["end_to_end"] == {}


@pytest.mark.parametrize("name", ["ingest", "rebuild", "certify"])
def test_clean_run_computes_every_listed_metric(tmp_path, name):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert name in {w["name"] for w in spec["workloads"]}
    result = run.run_workload(small(name), session(tmp_path), seed=3, seconds=0, trace=True)
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] > 0
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            assert metric["name"] in result[group], (group, metric["name"])
            assert result[group][metric["name"]][1] == metric["unit"], metric["name"]
    for metric in spec["end_to_end"]:
        assert result["end_to_end"][metric["name"]][0] > 0
