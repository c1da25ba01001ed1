"""Golden Monte-Carlo sweeps: `run_monte_carlo` rows and `nbqc simulate`
output pinned to values recorded from the one-frame-at-a-time decoder, so
that a change to how a sweep's frames are scheduled (batched, pooled) cannot
move a single count.

The code is the 8-ary (42, 21) Class-II code class2(3, 1, gamma=3, rho=6)
at 1, 2 and 3 dB, 20 frames per point, max_iter 10.
"""

import pytest

from nbqc.cli import main
from nbqc.construct import CodeSpec, build_code
from nbqc.decode import LAYER_I, DecoderConfig, build_layer_schedule, run_monte_carlo

SPEC = CodeSpec.class2(3, 1, gamma=3, rho=6)
SNRS = [1.0, 2.0, 3.0]

# (rng_seed, quant) -> SimResultRow.csv() of each SNR point
GOLDEN_ROWS = {
    (5, None): [
        "1.0,20,14,165,0.7,0.08333333333333333,6.15",
        "2.0,20,8,79,0.4,0.04365079365079365,3.9",
        "3.0,20,1,3,0.05,0.0015873015873015873,1.8",
    ],
    (5, (4, 1)): [
        "1.0,20,13,233,0.65,0.12301587301587301,6.9",
        "2.0,20,11,171,0.55,0.09365079365079365,5.45",
        "3.0,20,9,267,0.45,0.1503968253968254,4.85",
    ],
    (2024, None): [
        "1.0,20,9,114,0.45,0.06031746031746032,4.85",
        "2.0,20,8,58,0.4,0.030952380952380953,3.7",
        "3.0,20,4,39,0.2,0.019444444444444445,2.6",
    ],
    (2024, (4, 1)): [
        "1.0,20,10,203,0.5,0.10793650793650794,5.9",
        "2.0,20,11,173,0.55,0.08928571428571429,6.0",
        "3.0,20,9,242,0.45,0.1376984126984127,5.2",
    ],
}

# `nbqc simulate --snr-list 1,2,3 --trials 20 --seed 9` on the same code
GOLDEN_CSV = (
    "snr_db,trials,frame_errors,symbol_errors,fer,ber,avg_iters\n"
    "1.0,20,15,195,0.75,0.09761904761904762,6.1\n"
    "2.0,20,7,66,0.35,0.03333333333333333,3.35\n"
    "3.0,20,1,4,0.05,0.002380952380952381,2.0\n"
)


@pytest.mark.parametrize("seed, quant", sorted(GOLDEN_ROWS, key=str))
def test_golden_sweep_rows(seed, quant):
    h, _, _, fld = build_code(SPEC)
    schedule = build_layer_schedule(h, LAYER_I)
    config = DecoderConfig(max_iter=10, quant=quant, rng_seed=seed)
    rows = run_monte_carlo(h, schedule, fld, SNRS, 20, config)
    assert [r.csv() for r in rows] == GOLDEN_ROWS[seed, quant]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_golden_simulate_csv(capsys, tmp_path, workers):
    path = str(tmp_path / "q8.nbqc")
    flags = ["--class", "2", "--m", "3", "--t", "1", "--gamma", "3", "--rho", "6"]
    assert main(["construct", *flags, "-o", path]) == 0
    capsys.readouterr()
    argv = ["simulate", "--code", path, "--snr-list", "1,2,3", "--trials", "20", "--seed", "9"]
    assert main([*argv, "--workers", workers]) == 0
    assert capsys.readouterr().out == GOLDEN_CSV
