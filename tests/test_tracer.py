"""The benchmark's tracer wraps library names by module and reads their
arguments by position; it must install against this source tree and trace
a whole CLI round, so deleting or reshaping a traced name fails here."""

import os
import subprocess
import sys
from pathlib import Path

import msrcode

REPO = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
import tracer
tracer.install()
from msrcode import cli
store = sys.argv[1]
with open(store + "/in.bin", "wb") as f:
    f.write(bytes(range(256)) * 40)
for argv in (["init", "--q", "2", "--t", "2"], ["encode", store + "/in.bin"],
             ["repair", "--node", "1,0"], ["verify", "--trials", "1"]):
    if cli.main([*argv, "--out-dir", store]) != 0:
        sys.exit(f"{argv} failed")
if cli.main(["decode", store + "/out.bin",
             store + "/shard_1_1.msrc", store + "/shard_2_0.msrc"]) != 0:
    sys.exit("decode failed")
print(" ".join(tracer._names))
"""

# every traced name a round of init, encode, repair, verify and decode calls
TRACED = {
    "codec.encode_batch", "codec.decode_batch", "codec.verify_mds", "codec.encode",
    "codec.decode_from_k", "repair.repair_batch", "shardio.symbols_from_bytes",
    "shardio.bytes_from_symbols", "shardio.write_shard", "parity.find_code",
    "parity.build_system", "gf.mul_vec", "parity.completion_map",
    "parity.inverse_for",
}


def test_tracer_installs_and_traces_a_round(tmp_path):
    paths = [str(Path(msrcode.__file__).parents[1]), str(REPO / "perfbench")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    out = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert TRACED <= set(out.stdout.split())
    assert (tmp_path / "out.bin").read_bytes() == bytes(range(256)) * 40
