"""Byte-identity of the CLI's written outputs.

Every pinned file holds exact rationals printed through repr(float) or as
"p/q" strings, so its bytes do not depend on the machine. A change that is
meant to keep outputs as they are (a speed-up, a refactor) must leave these
hashes alone; a change that moves an output on purpose updates the hash
and says why.
"""

import hashlib
import json

import pytest

from dhmeasure import cli, localize, verify

ORBIT_FILES = ("t_density.csv", "k_density.csv", "t_spline.json", "k_spline.json", "weyl.json")

GOLDEN_ORBITS = {
    ("AIII", (2, 1), ("3", "1", "-4")): {
        "t_density.csv": "24ea4fd22ea8b1b6f5956bef2c05249edb0316dff82809d3d9253330352d6190",
        "k_density.csv": "772fe91a3cb600cbddae177b3877a43643f3648ee34c5053b19cf5758a26b2b1",
        "t_spline.json": "4d9622205f946c4ef3c8b3ca0890e195511e415938f75f6f8ad2eebc137f1939",
        "k_spline.json": "415327bd56d0c3c1b7b90540e9600ed4c5f250098e540be1c1da47a13653ef3b",
        "weyl.json": "0cfe84258b31c9545a0d79c012f46340f12ed7cc92aa0bf45caf54a67b3202a2",
    },
    ("CI", (2,), ("5", "2")): {
        "t_density.csv": "1cd266da7dc1580ec3fbf93a9c0f63f911c20ea31c660080206ff8b1d04cb44d",
        "k_density.csv": "701c6e6ec65ef7c479e11842bd8f34b6d1b81a5d59a7d3e8eb952b2fb93c3c78",
        "t_spline.json": "29af99ec8969037b3f63ba2c7a1457381fad08e042328d583877079c38d9fba8",
        "k_spline.json": "973b2f2f18f5acdcc25c186a7048f937d7baff4708be4ab7556ce4d06359609d",
        "weyl.json": "2647698c29dd39c220a5eca49f971ee4225fcb44ff6fd480e59f684389d32492",
    },
}

GOLDEN_ABELIAN = {
    "density.csv": "969bff7b40ae735cecee2a4ce21e07461365cbb29296bc40d70d20f372826dfa",
    "spline.json": "c69e4cea6d2add853ea12ddbc3d7c17ded8e5b6266f8ae26c73743f3747819df",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("family,params,lam", list(GOLDEN_ORBITS))
def test_orbit_outputs_are_byte_identical(family, params, lam, tmp_path):
    src = tmp_path / "orbit.json"
    src.write_text(json.dumps({"family": family, "params": list(params), "lambda": list(lam)}))
    out = tmp_path / "out"
    rc = cli.main(["orbit", "--input", str(src), "--out", str(out), "--measure", "both",
                   "--zeta-samples", "2", "--grid=-8:8:9,-8:8:9"])
    assert rc == 0
    got = {name: _sha256(out / name) for name in ORBIT_FILES}
    assert got == GOLDEN_ORBITS[(family, params, lam)]


def test_abelian_outputs_are_byte_identical(tmp_path):
    name, M, chambers = verify.model_library()[4]
    assert name == "plane_proj_2"
    src = tmp_path / "model.json"
    src.write_text(json.dumps(localize.model_to_json(M)))
    out = tmp_path / "out"
    xi = ",".join(str(x) for x in chambers[1])
    rc = cli.main(["abelian", "--input", str(src), "--out", str(out), "--chamber", xi,
                   "--zeta-samples", "2", "--grid=-2:6:9,-4:4:9"])
    assert rc == 0
    got = {name: _sha256(out / name) for name in GOLDEN_ABELIAN}
    assert got == GOLDEN_ABELIAN
