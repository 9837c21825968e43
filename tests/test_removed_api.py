"""Names and options removed from the public API stay removed: each name
is absent from `convdist` and from the module or class that defined it."""

import dataclasses
import importlib

import pytest

import convdist
from convdist.cli import main
from convdist.convcode import BoundReport, ConvCode
from convdist.gf2core import BitMatrix, BitVec

REMOVED = {
    "construct": [
        "construct_rate_1_n",
        "construct_extended",
        "construct_k_dim",
        "construct_k_dim_extended",
        "construct_near_optimal",
    ],
    "optsearch": [
        "best_profile_bruteforce",
        "codes_equivalent_by_column_permutation",
        "_padded_tubes",
        "_code_from_tubes",
        "_tube_weights",
        "_window_rows",
    ],
    "gf2core": ["vec_mat_mul", "weight", "transpose"],
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
    (BitMatrix, "from_rows"),
    (BitMatrix, "row"),
]


def test_removed_names_are_gone():
    for module, names in REMOVED.items():
        defining = importlib.import_module(f"convdist.{module}")
        for name in names:
            assert not hasattr(convdist, name), name
            assert not hasattr(defining, name), name
    for cls, name in REMOVED_METHODS:
        assert not hasattr(cls, name), (cls.__name__, name)


def test_one_profile_path():
    # distance_profile picks its oracle itself; the free distance is
    # free_distance(c), and the generic bounds are the CLI's own
    code, _ = convdist.construct(4, 1, 2)
    for option in ({"method": "trellis"}, {"with_free": True}):
        with pytest.raises(TypeError):
            convdist.distance_profile(code, 3, **option)
    assert [f.name for f in dataclasses.fields(BoundReport)] == ["lower", "upper", "cap"]


def test_profile_has_no_method_option(tmp_path, capsys):
    path = tmp_path / "c.txt"
    main(["construct", "4", "1", "2", "--out", str(path), "--quiet"])
    assert main(["profile", str(path), "--method", "trellis"]) == 1
    assert "--method" in capsys.readouterr().err
