"""Golden traces: decoder outputs pinned to values recorded from the
per-row reference decoder, so that a faster decoder core (or a change to
the channel) cannot drift in its arithmetic unnoticed.

Each case decodes one frame of the all-zero codeword with a fixed
SeedSequence seed and compares sha256 digests of the stacked per-layer
posterior trace and of the hard decisions, and the iteration count.
"""

import hashlib

import numpy as np
import pytest

from nbqc.construct import CodeSpec, build_code
from nbqc.decode import (
    DecoderConfig,
    build_layer_schedule,
    channel_reliability,
    decode,
    snr_to_sigma,
)

# the acceptance suite's SANITY_SPECS
SANITY = {
    "c1-m2": CodeSpec.class1(2, 1, 3, gamma=2, rho=3),
    "c1-m4": CodeSpec.class1(4, 3, 5, gamma=3, rho=6),
    "c2-m2": CodeSpec.class2(2, 1, gamma=2, rho=4),
    "c2-m3": CodeSpec.class2(3, 1, gamma=3, rho=6),
}
HEADLINE_Q64 = CodeSpec.class1(6, 7, 9, gamma=10, rho=20)

# case -> (spec, snr_db, seed, max_iter, quant)
CASES = {
    **{
        f"{name}-{'float' if quant is None else 'q%d.%d' % quant}": (spec, 1.0, 100 + i, 8, quant)
        for i, (name, spec) in enumerate(SANITY.items())
        for quant in (None, (4, 1))
    },
    # once a one-row-per-layer case: its trace at every block row's end was this one
    "c2-m3-seed200": (SANITY["c2-m3"], 1.0, 200, 8, None),
    "q64-headline": (HEADLINE_Q64, 3.0, 300, 1, (6, 2)),
}

# case -> (sha256 of np.stack(trace), sha256 of the symbols, iterations)
GOLDEN = {
    "c1-m2-float": ("47497c36cf1fa83e97309e118e012ad6ceda406197e6218a667193200074a1eb", "834a709ba2534ebe3ee1397fd4f7bd288b2acc1d20a08d6c862dcd99b6f04400", 1),
    "c1-m2-q4.1": ("528d500d38288a0d52cfe4736ef21fff52464c7401112a52acb71f8da721a491", "834a709ba2534ebe3ee1397fd4f7bd288b2acc1d20a08d6c862dcd99b6f04400", 1),
    "c1-m4-float": ("ce892ea19ffefbcc6639547cf3fa03d529b46387754ce7608c699de9a64cc755", "d3382f885e46eac5c79222fc9348ba4f90c01b9988778b3b417a5b415f41d02e", 8),
    "c1-m4-q4.1": ("13a9b7363e54d7f5d99dd638609c46cd2a241d6e7bbf9191956abc19e5a0a70a", "ee8bea88d03fc83188ee2b6ae4b358077d830daf0b9e901cd000f60c2650ec78", 8),
    "c2-m2-float": ("211ee8c32611d2351b005d6b602aafd8658395eb943b1aa4cfbf02010d5b7f44", "2ea9ab9198d1638007400cd2c3bef1cc745b864b76011a0e1bc52180ac6452d4", 1),
    "c2-m2-q4.1": ("ac1d3dbcf2adb01991858fe44574b7e58f289462ccf22b179dff6f9ad3fd5bef", "2ea9ab9198d1638007400cd2c3bef1cc745b864b76011a0e1bc52180ac6452d4", 1),
    "c2-m3-float": ("e879b833bb549beeb820b1c7cd8504b26a76006142c1d037920e7e309c0b5e94", "52a3e0804d93dc525ec3c67ef8ac5b01756ecf0513e36f3c19435e4c82cb5d29", 3),
    "c2-m3-q4.1": ("bb45b006b5e8e96bb05710b2fadbfef7e64cf0d42b901a9084d865c4deede04a", "52a3e0804d93dc525ec3c67ef8ac5b01756ecf0513e36f3c19435e4c82cb5d29", 3),
    "c2-m3-seed200": ("2ea54bcff7551883181d34358f7ed44baf885268600073fbd5f1e437dedd4273", "18725a0a1b36f5b9b157ca95f4fac7a0211ae5697240f0d5311c2f6c1cc329dc", 8),
    "q64-headline": ("7407a8366266fa7279b928a6c7d6ae2bb1ce11239408aa494c397a97742e7be2", "456b8a4070b0bb554cb68a871cc06d499eaccee0f86b06286aaa1fdb9c5bb2ce", 1),
}


def digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def run_case(spec, snr_db, seed, max_iter, quant):
    h, _, _, fld = build_code(spec)
    schedule = build_layer_schedule(h)
    sigma = snr_to_sigma(snr_db, (h.cols - h.rows) / h.cols)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    channel = channel_reliability(np.zeros(h.cols, dtype=int), sigma, fld, rng)
    config = DecoderConfig(max_iter=max_iter, quant=quant, trace=True)
    result = decode(h, schedule, channel, fld, config)
    symbols = np.asarray(result.symbols, dtype=np.int64)
    return digest(np.stack(result.trace)), digest(symbols), result.iterations


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_trace(case):
    assert run_case(*CASES[case]) == GOLDEN[case]
