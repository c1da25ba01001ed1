"""Golden traces of multi-frame decoding: stacks whose frames retire at
different iterations.

"q64-headline-q6.2" is four frames of the 64-ary (1260, 630) headline
code on uint8 codes; 128 (frame, row) pairs fit the workspace, so its
chunks split each layer's rows.  "q32-float-70" is 70 unquantized frames
of a 32-ary code; only 64 float64 pairs fit, so its chunks split frames,
one row at a time, until enough frames retire.  Frame 0 of each stack is
noiseless and retires after the first iteration.
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
    hard_channel,
    snr_to_sigma,
)

# case -> (spec, SNRs of frames 1.. in dB, seed, quant, max_iter)
CASES = {
    "q64-headline-q6.2": (CodeSpec.class1(6, 7, 9, gamma=10, rho=20), [4.5, 5.0, 5.3], 9, (6, 2), 4),
    "q32-float-70": (CodeSpec.class2(5, 4, gamma=2, rho=4), list(np.linspace(0.0, 4.0, 70)[1:]), 11, None, 5),
}

# case -> (sha256 of every frame's np.stack(trace), in frame order; iterations per frame)
GOLDEN = {
    "q64-headline-q6.2": ("1b26296cb1001cf2a65b2a8381ec9c4dd340d75ed152d070b3ea63d26f26ee49", [1, 4, 3, 1]),
    "q32-float-70": (
        "5482a64e3f3657bceb1e2f6c16020e38d10d18ffffe079e81a8ab25bcde351df",
        [1, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 3, 5, 5,
         5, 5, 5, 3, 2, 3, 5, 5, 5, 2, 3, 2, 5, 4, 2, 2, 3, 2, 5, 5, 5, 3, 2, 2, 3, 5, 2, 5, 2, 3, 3, 2, 2, 2,
         2, 1],
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_frame_stack_trace(case):
    spec, snrs, seed, quant, max_iter = CASES[case]
    h, _, _, fld = build_code(spec)
    schedule = build_layer_schedule(h, LAYER_I)
    tx, rate = np.zeros(h.cols, dtype=int), (h.cols - h.rows) / h.cols
    frames = [hard_channel(tx, fld)]
    for t, snr in enumerate(snrs):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,)))
        frames.append(channel_reliability(tx, snr_to_sigma(snr, rate), fld, rng))
    results = decode(h, schedule, np.stack(frames), fld, DecoderConfig(max_iter, quant, trace=True))
    trace = hashlib.sha256(b"".join(np.stack(r.trace).tobytes() for r in results)).hexdigest()
    assert (trace, [r.iterations for r in results]) == GOLDEN[case]
