"""Names removed from the public API stay removed: each is absent from
`convdist` and from the module or class that defined it."""

import importlib

import convdist
from convdist.convcode import ConvCode
from convdist.gf2core import BitMatrix, BitVec

REMOVED = {
    "construct": [
        "construct_rate_1_n",
        "construct_extended",
        "construct_k_dim",
        "construct_k_dim_extended",
    ],
    "optsearch": [
        "best_profile_bruteforce",
        "codes_equivalent_by_column_permutation",
        "_padded_tubes",
    ],
    "gf2core": ["vec_mat_mul", "weight"],
}
REMOVED_METHODS = [
    (BitMatrix, "columns"),
    (BitMatrix, "permute_columns"),
    (ConvCode, "permute_columns"),
    (BitVec, "__getitem__"),
    (BitVec, "__len__"),
    (BitVec, "__xor__"),
    (BitVec, "__and__"),
    (BitVec, "weight"),
    (BitVec, "from_string"),
]


def test_removed_names_are_gone():
    for module, names in REMOVED.items():
        defining = importlib.import_module(f"convdist.{module}")
        for name in names:
            assert not hasattr(convdist, name), name
            assert not hasattr(defining, name), name
    for cls, name in REMOVED_METHODS:
        assert not hasattr(cls, name), (cls.__name__, name)
