"""Self time and per-layer totals computed from span trees."""

import subprocess
import sys
from pathlib import Path

import pytest

import spans
from spans import Span, layers, self_times

ROOT = Path(__file__).resolve().parents[2]


def tree() -> list[Span]:
    # root [0, 100] with children a [10, 40] and b [50, 60] and c [55, 70]
    # (b and c overlap); a has child aa [20, 30]; aa has a nested a [22, 24].
    return [
        Span("root", 0, 100, -1, "r"),
        Span("a", 10, 40, 0, "r"),
        Span("aa", 20, 30, 1, "r"),
        Span("a", 22, 24, 2, "r"),
        Span("b", 50, 60, 0, "r"),
        Span("c", 55, 70, 0, "r"),
    ]


def test_self_time_subtracts_union_of_children():
    got = [round(x * 1e9) for x in self_times(tree())]
    # root: 100 - |[10,40] u [50,70]| = 50; a: 30 - 10; aa: 10 - 2
    assert got == [50, 20, 8, 2, 10, 15]


def test_self_times_sum_to_root_when_children_nest():
    nested = [s for s in tree() if s.name != "c"]
    assert sum(self_times(nested)) == pytest.approx(nested[0].seconds)


def test_child_outside_parent_is_clipped():
    sp = [Span("p", 0, 10, -1, "r"), Span("x", 5, 20, 0, "r")]
    assert [round(x * 1e9) for x in self_times(sp)] == [5, 15]


def test_layers_count_recursion_once_and_keep_runs_apart():
    run2 = [Span("root", 0, 7, -1, "s"), Span("a", 1, 3, 0, "s")]
    lay = layers(tree() + run2)
    assert lay["a"].calls == 3
    # the a nested under a/aa is inside the outer a, so only 30 + 2 ns count
    assert round(lay["a"].seconds * 1e9) == 32
    assert round(lay["root"].self_s * 1e9) == 50 + 5


def test_traced_command_self_times_fit_in_main(tmp_path):
    data = tmp_path / "in.bin"
    data.write_bytes(bytes(range(256)) * 8)
    env = {"PYTHONPATH": str(ROOT / "src")}
    store = tmp_path / "store"
    subprocess.run([sys.executable, "-m", "msrcode.cli", "init", "--q", "2", "--t", "2",
                    "--out-dir", str(store)], env=env, check=True, capture_output=True)
    out = tmp_path / "spans.json"
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(out), "enc",
                    "--", "encode", str(data), "--out-dir", str(store)],
                   env=env, check=True, capture_output=True)
    sp = spans.load(out)
    assert sp[0].name == "cli.encode" and sp[0].parent == -1
    assert {"codec.encode_batch", "gf.mul_vec", "shardio.write_shard"} <= {s.name for s in sp}
    assert sum(self_times(sp)) <= sp[0].seconds + 1e-9
    lay = layers(sp)
    shard_bytes = sum(p.stat().st_size for p in store.glob("*.msrc"))
    assert lay["shardio.write_shard"].write_bytes == shard_bytes
    # work is whole stripes: the input plus its zero-fill, under one stripe
    stripe_bytes = 8 * int(dict(line.split("=") for line in
                                (store / "manifest.txt").read_text().split())["m"]) / 8
    assert 0 <= lay["codec.encode_batch"].work - len(data.read_bytes()) < stripe_bytes
