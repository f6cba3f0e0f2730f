"""Byte-identity gate on the geometry reports.

``stein-classify`` and ``envelope`` run on the twelve classification fixtures
of the verify suite (six rank-2 shadows under a tube and a non-tube model),
plus one rank-3 envelope.  Each report must keep the sha256 recorded below,
so a refactor of the shadow code cannot change a report unnoticed.  When a
digest differs, the failure message carries the new report; a deliberate
report change records its new digest here.
"""

import hashlib
import json
import math

import pytest

from levislice.cli import main

E1, E2 = math.exp(-1.0), math.exp(-2.0)

# name -> (rank, [(lo, hi), ...]), the geometries of verify's fixtures
SHADOWS = {
    "full": (2, [((0.0, 0.0), (1.0, 1.0))]),
    "annulus": (2, [((E2, E2), (E1, E1))]),
    "two_annuli": (2, [((0.1, 0.1), (0.2, 0.2)), ((0.5, 0.5), (0.6, 0.6))]),
    "l_shape": (2, [((0.5, 0.0), (1.0, 1.0)), ((0.0, 0.5), (0.5, 1.0))]),
    "staircase": (2, [((0.0, 0.0), (0.9, 0.1)), ((0.0, 0.0), (0.1, 0.9))]),
    "asym_pair": (2, [((0.1, 0.5), (0.2, 0.6))]),
    "two_annuli_r3": (3, [((0.1,) * 3, (0.2,) * 3), ((0.5,) * 3, (0.6,) * 3)]),
}

# (command, model kind, shadow, grid_n) -> sha256 of the report on stdout;
# both commands are exact and ignore grid_n, which the configs still send
# because the schema accepts it
GOLDEN = {
    ("stein-classify", "tube", "full", 64):
        "a49bee646f63c863f46f706b172a900c6c6bc69c5d9dbbfa09320883319221b1",
    ("envelope", "tube", "full", 32):
        "ffa4e1c32ad281ea209e4f0e226979bb8d0da1a331cb5704d1e3b449fad3d558",
    ("stein-classify", "nontube", "full", 64):
        "b30ea877eb6ce05072071634e0c02deb6b4e75066e1f4b4c3f2b4f4d18d03dad",
    ("envelope", "nontube", "full", 32):
        "0daf527f011115fdd9eebff1199f4a0ca58931b2ffc462bb6ab6649aef98ea76",
    ("stein-classify", "tube", "annulus", 64):
        "947175a5251a4a974f5f58d2c880773e1429db847459d11aba86f95d864c4848",
    ("envelope", "tube", "annulus", 32):
        "538b998caf0b3c7e1667753248a96ad8036358e223412f0627617a09678db96d",
    ("stein-classify", "nontube", "annulus", 64):
        "bd16dde7438796a865a0457b36d00f0bbf45bf13ff14c32db56cfe3033b5736b",
    ("envelope", "nontube", "annulus", 32):
        "e9e9771d6dbe0cfd7187536803614e970b9131b28710f128e72c8594db7dcb8d",
    ("stein-classify", "tube", "two_annuli", 64):
        "79caa63dc36acf7fb3dfc0c7e306a8fd2002cdb1669388d3d1ee159343f5324e",
    ("envelope", "tube", "two_annuli", 32):
        "95534210dddf8056636997ee38949121dd7c7198bec97ef27d2ab09b895259f8",
    ("stein-classify", "nontube", "two_annuli", 64):
        "d8382f763d434f89d0f12d7c50d55f36f1a9b82358af7399b5702f73460c1623",
    ("envelope", "nontube", "two_annuli", 32):
        "a98036a9c02c9d6de997f33b5b5377f9137422b0b9a4704ba34ef2e85596e1f6",
    ("stein-classify", "tube", "l_shape", 64):
        "f97b4cbd0cdaa4a560289aa00d468f72c49dbef6e1495c5325551d1de71e1f81",
    ("envelope", "tube", "l_shape", 32):
        "c9bddbd1300cc3e55a494b54e479f98fb20f94844a9ccd06d18e0ab4dd04afb5",
    ("stein-classify", "nontube", "l_shape", 64):
        "38235efe46666c13b405b5ba90ad345687892d395f4d187157903a6b949289c4",
    ("envelope", "nontube", "l_shape", 32):
        "1ca217383b38d76c66405bbb1a00ff3f3ec98fc08f82a235e2c792ba49485c55",
    ("stein-classify", "tube", "staircase", 64):
        "7e6e9281cd87268d98d9761d624bdb420ae5ea2a172398ec72c82a3ceec30b95",
    ("envelope", "tube", "staircase", 32):
        "45cb0d8e1460dc1fc74340e666c6534aca7a127fb007a243268d48c97cd55819",
    ("stein-classify", "nontube", "staircase", 64):
        "3ee51370687a08cd4bfbd5e4bab0d1d18bd479cf96d1931828d9b36b8b0a745f",
    ("envelope", "nontube", "staircase", 32):
        "33da926acc6cf7de39ca4499d4ac0ef83d4cec9653adf4feaca4cb8e2a62ee96",
    ("stein-classify", "tube", "asym_pair", 64):
        "f2b024d62ffb5e7829eec345a68e791bef467b1badcf9b602a06039fc5d337e4",
    ("envelope", "tube", "asym_pair", 32):
        "db085bf61d3627f90c0383429e2a9ac4483c2390f22a8dcb0f969b7842827a67",
    ("stein-classify", "nontube", "asym_pair", 64):
        "2f9cdeb7d0b1d1e2d77fe1b812f324e245d90aa8f95b0481b53d31dff1463e43",
    ("envelope", "nontube", "asym_pair", 32):
        "539f6d2e0f07d771db83605860f0d511eb89470a3590c31c1cc8e0a2e91cbc13",
    ("envelope", "tube", "two_annuli_r3", 24):
        "e1ca84591b3b30a26fcd01401c3f2fac0593a00ef7c0c8f5100ae53eaa9b0746",
}


def _config(kind, name, grid_n):
    rank, boxes = SHADOWS[name]
    model = {"rank": rank, "kind": kind, "killing_b": 8.0}
    if kind == "nontube":
        model["mult_short"] = 2
    return {
        "model": model,
        "shadow": {"rank": rank,
                   "boxes": [{"lo": list(lo), "hi": list(hi)} for lo, hi in boxes]},
        "grid_n": grid_n,
    }


@pytest.mark.parametrize("case", list(GOLDEN), ids=lambda case: "-".join(map(str, case)))
def test_report_is_byte_identical(case, tmp_path, capsys):
    command, kind, name, grid_n = case
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_config(kind, name, grid_n)))
    code = main([command, "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    digest = hashlib.sha256(captured.out.encode("utf-8")).hexdigest()
    assert digest == GOLDEN[case], f"report of {case} changed; new report:\n{captured.out}"
