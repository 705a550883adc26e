"""High-rate minimum-storage regenerating (MSR) erasure code with
polynomial sub-packetization.

An (n = t*q, k = (t-1)*q, d = n-1) vector MDS code storing alpha = q^t
symbols per node.  Any k nodes recover the data; a single failed node is
rebuilt exactly from verbatim symbols -- beta = q^(t-1) per helper, the
minimum-storage optimum -- with no computation at the helpers.

A codeword is {node: column}.  encode and decode_from_k work on one stripe
of ints; encode_batch, decode_batch and repair_batch work on blocks of
stripes, Blocks of (rows, stripes) symbols held as bit planes (Python
ints).  Neither loads numpy.
"""

from .gf import GF2M, Block
from .params import CodeParams, make_params
from .parity import (
    ParityCheckSystem,
    build_hmds,
    build_system,
    check_mds_ranks,
    find_c0,
    find_code,
    gf_rank,
)
from .codec import MdsReport, decode_batch, decode_from_k, encode, encode_batch, verify_mds
from .repair import repair_batch

__version__ = "0.1.0"

__all__ = [
    "GF2M",
    "Block",
    "CodeParams",
    "make_params",
    "ParityCheckSystem",
    "build_hmds",
    "build_system",
    "check_mds_ranks",
    "find_c0",
    "find_code",
    "gf_rank",
    "MdsReport",
    "encode",
    "decode_from_k",
    "encode_batch",
    "decode_batch",
    "verify_mds",
    "repair_batch",
    "__version__",
]
