"""Golden traces of quantized decoding on the wide-message paths.

One max_iter=1 frame of the 32-ary (992, 496) headline code and of a
256-ary code, at quantizers whose largest code needs 8 or 16 bits.  The
check node runs these on unsigned integer codes: a code dtype too narrow
for 2^b_q - 1, or a wrong gather of whole words at q=32 (4 words of a
uint8 row) or q=256 (32 words), changes the trace.  The digests were
recorded from the float check node.
"""

import hashlib

import numpy as np
import pytest

from nbqc.construct import CodeSpec, build_code
from nbqc.decode import (
    LAYER_I,
    DecoderConfig,
    build_layer_schedule,
    channel_reliability,
    decode,
    snr_to_sigma,
)

HEADLINE_Q32 = CodeSpec.class2(5, 4, gamma=16, rho=32)
Q256 = CodeSpec.class2(8, 4, gamma=2, rho=4)

# case -> (spec, seed, quant); every case is one frame at 3 dB, max_iter=1
CASES = {
    "q32-headline-q6.2": (HEADLINE_Q32, 400, (6, 2)),
    "q32-headline-q10.4": (HEADLINE_Q32, 401, (10, 4)),
    "q32-headline-q16.8": (HEADLINE_Q32, 404, (16, 8)),
    "q256-q8.3": (Q256, 402, (8, 3)),
    "q256-q10.4": (Q256, 403, (10, 4)),
}

# case -> (sha256 of np.stack(trace), iterations)
GOLDEN = {
    "q32-headline-q6.2": ("156a575166cce18ec4af2b892c9dd6fa551da22e2e15f5343647819c40086637", 1),
    "q32-headline-q10.4": ("e2dd91dac8df92c34ce4175a9a2fd14be446f63be4408f9f4fbfbbf7f61da2e4", 1),
    "q32-headline-q16.8": ("891c813d5c633822eea40e7eaa3cbdae72c68c885fe3d544d93b186bb7861b81", 1),
    "q256-q8.3": ("c3fbab14c42a16805b6231df8800ffa30ac9217cd65f4dc03c97773eb019bb99", 1),
    "q256-q10.4": ("252585239d9d635762fcf3257379a0d0d57a98a275bbf6b6a03f6ff6ce7f7bc0", 1),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_quantized_trace(case):
    spec, seed, quant = CASES[case]
    h, _, _, fld = build_code(spec)
    schedule = build_layer_schedule(h, LAYER_I)
    sigma = snr_to_sigma(3.0, (h.cols - h.rows) / h.cols)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    channel = channel_reliability(np.zeros(h.cols, dtype=int), sigma, fld, rng)
    result = decode(h, schedule, channel, fld, DecoderConfig(max_iter=1, quant=quant, trace=True))
    trace = hashlib.sha256(np.stack(result.trace).tobytes()).hexdigest()
    assert (trace, result.iterations) == GOLDEN[case]
