"""Shard format v2 pinned byte for byte: a fixed seeded input, encoded by
the CLI, must give shards and a manifest with exactly these SHA-256s, and
those shards must still decode and repair.  A change to the field tables,
the plans, the bit packing or the block layout that alters a single byte
of what encode writes fails here, before any older store becomes
unreadable.

Each case has more than one 4096-stripe payload block and ends in a
partial block whose last stripe is only partly filled with input."""

from __future__ import annotations

import hashlib
import random

import pytest

from msrcode.cli import EXIT_OK, main
from msrcode.shardio import MANIFEST_NAME, Manifest, shard_filename

# (q, t, m) -> (input seed, input length, {file name: SHA-256})
PINNED = {
    # 12 input bytes per stripe: 8,610 stripes, two full blocks and a third
    (2, 3, 3): (23, 2 * 49152 + 5007, {
        "manifest.txt": "ba4894bc6b3695b446880ff67709497793bea7cae42da393e1a181f0a27532f2",
        "shard_1_0.msrc": "34f102dd717cb40b24be9b58aaa04e17388d4ae3a4bd795132968b02f447915b",
        "shard_1_1.msrc": "02d1d2bb3adcc8f07fed520ecb48ad09c76556e5306fd4983f9c0347c50440dd",
        "shard_2_0.msrc": "511acc5c130e4f65176d5d66675feeb23aa824fc0fa4d0db180e0aa1c1be829a",
        "shard_2_1.msrc": "094cace87a9b0a062d0b5c4473faaf36ee1f26ddde5978bfd6f0eb9896b7231b",
        "shard_3_0.msrc": "adde74e15fc8fbce352fb2782be7241c4185d7d1bb5237654c586b8a41417721",
        "shard_3_1.msrc": "903dbb48c954c900a0d6f5fe384e7351e17d2699319ca2c39d898d59ece87329",
    }),
    # 162 input bytes per stripe: 4,714 stripes, one full block and a second
    (3, 3, 8): (338, 663552 + 100001, {
        "manifest.txt": "897cdf8268d08667af41067daac1a38973bbd522fc826f1772db8b6eb23939f5",
        "shard_1_0.msrc": "0ec799f4eb520ee2ee8add3c7e7f938794b34505880c1e39c71b388fd7f93493",
        "shard_1_1.msrc": "ec4f303547e13de96f8091ae3e81aea584207e56fa3e9b9ad34a09558bf0d373",
        "shard_1_2.msrc": "df92a4467e150426796048130022ebccdb84f26b75cca3707a7cba0db9dab978",
        "shard_2_0.msrc": "977274b14eb4ac3b095e948795591c73ebc210f1d2db143f0c2237712251079d",
        "shard_2_1.msrc": "6cd09a6eff980b1994d4226a7714904a9fe438a76d58e0960b0b5828e4f900fa",
        "shard_2_2.msrc": "77ffbd998e3c8cc2a074a2390ce9e59ad785789a18e5a406ec25db8829134ddb",
        "shard_3_0.msrc": "8f9c0a3de77fd48be342424ddd8f950af321dce4a23d9866f633db8bc724f0f6",
        "shard_3_1.msrc": "ec57369f3de9408118a5aaa233d4095f1e78fe471420b90376f1f8f9f4df95fa",
        "shard_3_2.msrc": "274109eacaad0258e95c31d00a53c5619671c6cc876f6c04e22c5411692f94c3",
    }),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module", params=sorted(PINNED), ids=lambda qtm: "q%d-t%d-m%d" % qtm)
def store(request, tmp_path_factory):
    q, t, m = request.param
    seed, length, digests = PINNED[request.param]
    root = tmp_path_factory.mktemp("pin")
    data = random.Random(seed).randbytes(length)
    (root / "input.bin").write_bytes(data)
    st = root / "store"
    assert main(["init", "--q", str(q), "--t", str(t), "--m", str(m),
                 "--out-dir", str(st)]) == EXIT_OK
    assert main(["encode", str(root / "input.bin"), "--out-dir", str(st)]) == EXIT_OK
    return root, st, data, digests


def test_shards_and_manifest_bytes_are_pinned(store):
    _, st, _, digests = store
    got = {path.name: sha256(path) for path in sorted(st.iterdir())}
    assert got == digests


def test_pinned_store_decodes_from_the_last_k_shards(store):
    root, st, data, _ = store
    p = Manifest.read(st / MANIFEST_NAME).params()
    out = root / "out.bin"
    shards = [str(st / shard_filename(nd)) for nd in list(p.nodes())[-p.k :]]
    assert main(["decode", str(out), *shards]) == EXIT_OK
    assert out.read_bytes() == data


def test_pinned_store_repairs_a_node_of_every_class(store):
    _, st, _, digests = store
    p = Manifest.read(st / MANIFEST_NAME).params()
    for i in range(1, p.t + 1):
        name = shard_filename((i, i % p.q))
        (st / name).unlink()
        assert main(["repair", "--node", f"{i},{i % p.q}", "--out-dir", str(st)]) == EXIT_OK
        assert sha256(st / name) == digests[name]
