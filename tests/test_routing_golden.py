"""Golden routing output: `nbqc schedule` and `nbqc route` pinned to
sha256 digests of their stdout, with their exit codes, so that a rewrite
of the transition code cannot change a printed map or report unnoticed.

Covers the acceptance suite's SANITY_SPECS, a few more small codes, the
two headline codes, two 256-ary codes whose moves repeat across many
layers, and the refusals: a Class-II code whose group moves
do not fit rho, and `route` on a Class-II rho that is not a power of two
(both exit 1 with no output).
"""

import hashlib

import pytest

from nbqc import codefile
from nbqc.cli import main
from nbqc.construct import CodeSpec, build_code

SPECS = {
    # the acceptance suite's SANITY_SPECS
    "c1-m2": CodeSpec.class1(2, 1, 3, gamma=2, rho=3),
    "c1-m4": CodeSpec.class1(4, 3, 5, gamma=3, rho=6),
    "c2-m2": CodeSpec.class2(2, 1, gamma=2, rho=4),
    "c2-m3": CodeSpec.class2(3, 1, gamma=3, rho=6),
    # c = 7 shifts inside a CPM; gamma > n wraps the index-table rows
    "c1-m3": CodeSpec.class1(3, 7, 1, gamma=3, rho=5),
    "c2-m4": CodeSpec.class2(4, 2, gamma=6, rho=8),
    # n = 2 does not divide rho = 3: refused
    "c2-m2-rho3": CodeSpec.class2(2, 1, gamma=2, rho=3),
    # the headline codes: 64-ary (1260, 630) and 32-ary (992, 496)
    "q64": CodeSpec.class1(6, 7, 9, gamma=10, rho=20),
    "q32": CodeSpec.class2(5, 4, gamma=16, rho=32),
    # 256-ary: 4 of 16 Class-II moves and 2 of 8 Class-I moves are distinct
    "m8-c2": CodeSpec.class2(8, 4, gamma=16, rho=256),
    "m8-c1": CodeSpec.class1(8, 15, 17, gamma=8, rho=255),
}

SMALL = ("c1-m2", "c1-m4", "c2-m2", "c2-m3", "c1-m3", "c2-m4", "c2-m2-rho3")

# case -> (code, command); every layer is a CPM block row (LAYER_I, "layer1")
CASES = {
    f"{name}-{cmd}-layer1": (name, cmd)
    for name in SMALL + ("q64", "q32", "m8-c2", "m8-c1")
    for cmd in ("schedule", "route")
}

# case -> (exit code, sha256 of stdout)
GOLDEN = {
    "c1-m2-route-layer1": (0, "458455b3beb5bf23e2ccf4e07982c10a07328dc5f996d8b1b13b3cd3883c7330"),
    "c1-m2-schedule-layer1": (0, "0a2b5588cd5eb3c4dad34816abbf29a7b2a10d21a5dcb1701f0bb2b384cca3ca"),
    "c1-m3-route-layer1": (0, "8cfbf3f28b30a42f4696811fa506c497771b1643df725e219e243c76dbb5e3a4"),
    "c1-m3-schedule-layer1": (0, "bcc86ef83dd6dab7dcd98a9a6f82dff2eb8360ffd96f1419d2a08734075e1cd6"),
    "c1-m4-route-layer1": (0, "ca0f156e38f5e84d5b93d4de07517757328e7d57b3728a6e2ec06280a3cd8d4b"),
    "c1-m4-schedule-layer1": (0, "1305d81055b29d346ff658f6671a7eb11b3a93f695630acd7df7b6022241ba9d"),
    "c2-m2-rho3-route-layer1": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "c2-m2-rho3-schedule-layer1": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "c2-m2-route-layer1": (0, "c061b9b559ad4487a6946f0ceba2b43edf50cec70458346b3460d261a75f2205"),
    "c2-m2-schedule-layer1": (0, "c6feb11dbaa5979ce894bbe47409b1a0fde13c9d5bc27b50c298e146b911c6e5"),
    "c2-m3-route-layer1": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "c2-m3-schedule-layer1": (0, "4f26e670963b22259dd99f593402f8237f9412dfac2cdedfe1ea9a42b1515e3e"),
    "c2-m4-route-layer1": (0, "3f3880d76beb8881501223554a723b7c34597dc5c63e351059592691f882b23a"),
    "c2-m4-schedule-layer1": (0, "fca5fe11ca7587af0019be1c0f13b095b6c9653fd33503597ef23330ef3445ea"),
    "m8-c1-route-layer1": (0, "5b74683d0c0eb395a9cf919ed17315d010d8c3f5d77351999e21a56eebd91ea7"),
    "m8-c1-schedule-layer1": (0, "b4015d6020ab4625610bc81784a9ce5e9b3e7c82474c9b12def679c1f0e79049"),
    "m8-c2-route-layer1": (0, "a432f5020909ea6830a179d98e71fda8f0ee2db6c247c3842563de74ea5c31a6"),
    "m8-c2-schedule-layer1": (0, "322feb2ae86315ab6d31055f36c37820c1b7542227bcbb9b25fcaf1723c8eac9"),
    "q32-route-layer1": (0, "f6399d101cc080c5fbeb7caafc65923f52cd11eda7a2c6ee27e6fda5e7dde717"),
    "q32-schedule-layer1": (0, "a4138423ec2ed9f3dd7eb5eff7dd1f60ffdcee0a4667de2e321c0b352d1b3069"),
    "q64-route-layer1": (0, "3ba42a256110ede7c2c6ae1114092820828322c1c460e9cd5f29588a3877c7cb"),
    "q64-schedule-layer1": (0, "13a19b9ce05f069b06aa108f458e72b0c958f09d8fd604b83935be6b928f8425"),
}


@pytest.fixture(scope="module")
def code_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("codes")
    for name, spec in SPECS.items():
        h, _, _, fld = build_code(spec)
        codefile.write_code(str(root / f"{name}.nbqc"), spec, h, fld)
    return root


@pytest.mark.parametrize("case", sorted(CASES))
def test_routing_output_pinned(case, code_dir, capsys):
    name, cmd = CASES[case]
    code = main([cmd, "--code", str(code_dir / f"{name}.nbqc")])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[case]
