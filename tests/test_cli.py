"""End-to-end CLI behavior: exit codes, determinism and config files."""

import argparse

import pytest

import nbqc.cli
import nbqc.construct
from nbqc.cli import main
from nbqc.gf import GF2m


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def construct_class2(capsys, tmp_path, name="c2.nbqc", extra=()):
    path = str(tmp_path / name)
    code, out, err = run(
        capsys,
        "construct", "--class", "2", "--m", "2", "--t", "1",
        "--gamma", "2", "--rho", "4", "-o", path, *extra,
    )
    assert code == 0, err
    return path


def test_construct_and_verify_class2(capsys, tmp_path):
    path = construct_class2(capsys, tmp_path)
    code, out, err = run(capsys, "verify", path)
    assert code == 0
    assert "all checks passed" in out


def test_construct_and_verify_class1(capsys, tmp_path):
    path = str(tmp_path / "c1.nbqc")
    code, out, err = run(
        capsys,
        "construct", "--class", "1", "--m", "2", "--c", "1", "--n", "3",
        "--gamma", "2", "--rho", "3", "-o", path,
    )
    assert code == 0
    assert "6x9" in out
    code, out, err = run(capsys, "verify", path)
    assert code == 0
    assert "block_shift" in out and "inner_shift" in out


def test_construct_rejects_bad_factorization(capsys, tmp_path):
    code, out, err = run(
        capsys,
        "construct", "--class", "1", "--m", "2", "--c", "2", "--n", "2",
        "--gamma", "1", "--rho", "1", "-o", str(tmp_path / "x"),
    )
    assert code == 1
    assert "factorization" in err
    code, out, err = run(
        capsys,
        "construct", "--class", "1", "--m", "3", "--c", "1", "--n", "7",
        "--gamma", "1", "--rho", "1", "--poly=-b", "-o", str(tmp_path / "x"),
    )
    assert code == 1
    assert "polynomial -0xb does not have degree 3" in err


def test_construct_rejects_class1_random_ordering(capsys, tmp_path):
    path = tmp_path / "c1.nbqc"
    code, out, err = run(
        capsys,
        "construct", "--class", "1", "--m", "2", "--c", "1", "--n", "3",
        "--gamma", "2", "--rho", "3", "--random-surjective", "4", "-o", str(path),
    )
    assert code == 1
    assert "Class-II only" in err
    assert not path.exists()
    # flags of the other class are refused, not ignored
    for flags, message in (
        (["--class", "2", "--m", "2", "--t", "1", "--c", "7", "--n", "9"], "--c is Class-I only"),
        (["--class", "2", "--m", "2", "--t", "1", "--n", "9"], "--n is Class-I only"),
        (["--class", "1", "--m", "3", "--c", "1", "--n", "7", "--t", "1"], "--t is Class-II only"),
        (["--class", "1", "--m", "3", "--c", "1"], "Class-I construction requires --c and --n"),
        (["--class", "2", "--m", "2"], "Class-II construction requires --t"),
    ):
        code, out, err = run(
            capsys, "construct", *flags, "--gamma", "2", "--rho", "2", "-o", str(path)
        )
        assert code == 1
        assert message in err
        assert not path.exists()


@pytest.mark.parametrize("target", ["missing/x.nbqc", "."])
def test_construct_reports_an_unwritable_output(capsys, tmp_path, target):
    path = str(tmp_path / target)
    code, out, err = run(
        capsys,
        "construct", "--class", "2", "--m", "2", "--t", "1",
        "--gamma", "2", "--rho", "4", "-o", path,
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


def test_verify_fails_on_randomized_ordering(capsys, tmp_path):
    path = str(tmp_path / "bad.nbqc")
    code, out, err = run(
        capsys,
        "construct", "--class", "2", "--m", "4", "--t", "3",
        "--gamma", "16", "--rho", "16", "--random-surjective", "0", "-o", path,
    )
    assert code == 0
    code, out, err = run(capsys, "verify", path)
    assert code == 1
    assert "FAIL" in out
    assert "beta_palindrome" in out


def test_verify_exit_codes_on_bad_files(capsys, tmp_path):
    missing = str(tmp_path / "missing.nbqc")
    code, out, err = run(capsys, "verify", missing)
    assert code == 2
    garbage = tmp_path / "garbage.nbqc"
    garbage.write_text("not a code file\n")
    code, out, err = run(capsys, "verify", str(garbage))
    assert code == 2
    assert "parse error" in err
    path = construct_class2(capsys, tmp_path)
    with open(path) as f:
        lines = f.read().splitlines()
    assert lines[1:] == ["0 1 2 3", "1 0 3 2"]
    head = lines[0].split()
    head[4] = "x"  # the c field
    v1 = [lines[0].replace(" v2 ", " v1 "), "0: (3,0) (7,1) (11,2)"]  # the edge-list layout
    for edited, why in (
        ([" ".join(head)] + lines[1:], "header"),
        (v1, "header"),
        (lines[:2], "line 3"),
        (lines + ["0 0 0 0"], "line 4"),
        (lines[:1] + ["0 1 2"] + lines[2:], "line 2"),
        (lines[:2] + ["1 0 3 two"], "line 3"),
        (lines[:1] + ["0 1 2 4"] + lines[2:], "line 2: '4' is not a decimal element below q = 4"),
    ):
        with open(path, "w") as f:
            f.write("\n".join(edited) + "\n")
        simulate = ["simulate", "--code", path, "--snr-list", "1", "--trials", "1"]
        for argv in (["verify", path], ["route", "--code", path], ["schedule", "--code", path],
                     simulate):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert "parse error" in err and why in err
    m3 = str(tmp_path / "m3.nbqc")
    run(
        capsys,
        "construct", "--class", "1", "--m", "3", "--c", "1", "--n", "7",
        "--gamma", "2", "--rho", "2", "-o", m3,
    )
    with open(m3) as f:
        text = f.read()
    with open(m3, "w") as f:
        f.write(text.replace(" b\n", " -b\n", 1))  # negative primitive polynomial
    code, out, err = run(capsys, "verify", m3)
    assert code == 2
    assert "parse error" in err and "header" in err


def test_verify_detects_tampering(capsys, tmp_path):
    path = construct_class2(capsys, tmp_path)
    with open(path) as f:
        lines = f.read().splitlines()
    # W entry (0, 1) and its diagonal partner (1, 0) both lie in the 2x4 region
    assert lines[1].split()[1] == lines[2].split()[0] == "1"
    lines[1] = "0 2 2 3"
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    code, out, err = run(capsys, "verify", path)
    assert code == 1
    assert "entry_sym_diag" in out and "FAIL" in out


def test_simulate_deterministic(capsys, tmp_path):
    path = construct_class2(capsys, tmp_path)
    argv = [
        "simulate", "--code", path, "--snr-list", "1,3",
        "--trials", "20", "--max-iter", "5", "--seed", "7",
    ]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "snr_db,trials,frame_errors,symbol_errors,fer,ber,avg_iters"
    assert len(out1.splitlines()) == 3


def test_simulate_rejects_bad_snr_list(capsys, tmp_path):
    path = construct_class2(capsys, tmp_path)
    code, out, err = run(capsys, "simulate", "--code", path, "--snr-list", "1,x")
    assert code == 1


@pytest.mark.parametrize("snrs", ["-1,0", "-0.5"])
def test_simulate_takes_negative_snr_list(capsys, tmp_path, snrs):
    # a value that starts with '-' reads the same as when joined with '=',
    # after the full flag or a unique prefix of it (--s is also --seed's)
    path = construct_class2(capsys, tmp_path)
    flags = ["simulate", "--code", path, "--trials", "3", "--max-iter", "2"]
    joined = run(capsys, *flags, f"--snr-list={snrs}")[1]
    assert len(joined.splitlines()) == 1 + len(snrs.split(","))
    for flag in ("--snr-list", "--snr", "--sn"):
        code, out, err = run(capsys, *flags, flag, snrs)
        assert (code, out) == (0, joined), (flag, err)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--snr-list", "nan"], "finite"),
        (["--snr-list", "1,inf"], "finite"),
        (["--snr-list", "1", "--max-iter", "0"], "max_iter"),
        (["--snr-list", "1", "--workers", "0"], "worker"),
        (["--snr-list", "4000"], "finite"),
        (["--snr-list", "1", "--quant", "17,2"], "1 <= b_q <= 16"),
        (["--snr-list", "1,,2"], "bad --snr-list value"),
        (["--snr-list", "1,"], "bad --snr-list value"),
        (["--snr-list", "-5,0", "--quant", "6,-20"], "quantization requires 0 <= b_f < b_q, got (6, -20)"),
        (["--snr-list", "-5,0", "--quant", "6,-3"], "quantization requires 0 <= b_f < b_q, got (6, -3)"),
        (["--snr-list", "1", "--quant", "6"], "bad --quant value '6'; expected BQ,BF"),
        (["--snr-list", "1", "--seed", "-1"], "rng_seed must be non-negative, got -1"),
    ],
)
def test_simulate_rejects_malformed_input(capsys, tmp_path, flags, message):
    path = construct_class2(capsys, tmp_path)
    code, out, err = run(capsys, "simulate", "--code", path, "--trials", "2", *flags)
    assert code == 1
    assert out == ""
    assert message in err


def test_simulate_refuses_degree_one_checks(capsys, tmp_path):
    path = str(tmp_path / "deg1.nbqc")
    flags = ["--class", "1", "--m", "3", "--c", "1", "--n", "7", "--gamma", "1", "--rho", "2"]
    code, out, err = run(capsys, "construct", *flags, "-o", path)
    assert code == 0 and "H is 7x14" in out
    code, out, err = run(capsys, "simulate", "--code", path, "--snr-list", "1", "--trials", "2")
    assert code == 1
    assert out == ""
    assert "rows 0..6 have check degree 1" in err


def test_simulate_refuses_nonpositive_rate(capsys, tmp_path):
    path = str(tmp_path / "square.nbqc")
    flags = ["--class", "1", "--m", "2", "--c", "1", "--n", "3", "--gamma", "3", "--rho", "3"]
    code, out, err = run(capsys, "construct", *flags, "-o", path)
    assert code == 0 and "H is 9x9" in out
    code, out, err = run(capsys, "simulate", "--code", path, "--snr-list", "1", "--trials", "2")
    assert (code, out) == (1, "")
    assert err == "error: H is 9x9, so its design rate 0 is not positive\n"


def test_schedule_output_class1(capsys, tmp_path):
    path = str(tmp_path / "c1.nbqc")
    run(
        capsys,
        "construct", "--class", "1", "--m", "2", "--c", "1", "--n", "3",
        "--gamma", "2", "--rho", "3", "-o", path,
    )
    code, out, err = run(capsys, "schedule", "--code", path)
    assert code == 0
    first = out.splitlines()[0]
    assert first.startswith("transition layer 0 to layer 1:")
    assert "7 -> 3" in first
    assert "0 -> 8" in first


def test_partition_option_is_gone(capsys, tmp_path):
    # every layer is a CPM block row; --partition is an unknown argument
    path = construct_class2(capsys, tmp_path)
    for argv in (["simulate", "--snr-list", "1"], ["schedule"], ["route"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--code", path, "--partition", "layer1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --partition layer1" in capsys.readouterr().err


def test_route_class1_and_class2(capsys, tmp_path):
    c1 = str(tmp_path / "c1.nbqc")
    run(
        capsys,
        "construct", "--class", "1", "--m", "2", "--c", "1", "--n", "3",
        "--gamma", "2", "--rho", "3", "-o", c1,
    )
    code, out, err = run(capsys, "route", "--code", c1)
    assert code == 0
    assert "control_bits=0" in out
    c2 = construct_class2(capsys, tmp_path)
    code, out, err = run(capsys, "route", "--code", c2)
    assert code == 0
    assert "realized=yes" in out
    assert "total control bits" in out


def test_route_and_schedule_refuse_an_h_the_moves_do_not_describe(capsys, tmp_path):
    # the moves follow the spec's own W; a file built with a random subgroup
    # ordering has another H under the same header, so it is refused
    paths = {}
    for name, extra in (("plain", ()), ("random", ("--random-surjective", "5"))):
        paths[name] = str(tmp_path / f"{name}.nbqc")
        code, out, err = run(
            capsys,
            "construct", "--class", "2", "--m", "3", "--t", "1",
            "--gamma", "3", "--rho", "8", "-o", paths[name], *extra,
        )
        assert code == 0, err
    with open(paths["plain"]) as f, open(paths["random"]) as g:
        assert f.readline() == g.readline()  # the same header
        assert f.readline() == "0 1 2 3 4 5 6 7\n" and g.readline() == "0 1 4 5 2 3 6 7\n"
    for command in ("route", "schedule"):
        code, out, err = run(capsys, command, "--code", paths["plain"])
        assert code == 0 and out
        code, out, err = run(capsys, command, "--code", paths["random"])
        assert code == 1 and out == ""
        assert err == (
            f"error: {paths['random']}: block (0, 2) of H is 4, not W's 2; "
            "moves are derived from the spec's W, not from the file's H\n"
        )


TOOLCHAIN_CODES = {
    "class1": ("--class", "1", "--m", "3", "--c", "1", "--n", "7", "--gamma", "3", "--rho", "7"),
    "class2": ("--class", "2", "--m", "3", "--t", "1", "--gamma", "3", "--rho", "8"),
}


@pytest.mark.parametrize("flags", TOOLCHAIN_CODES.values(), ids=TOOLCHAIN_CODES)
def test_toolchain_commands_never_expand_h(capsys, tmp_path, monkeypatch, flags):
    path = str(tmp_path / "code.nbqc")

    def outputs():
        runs = [run(capsys, "construct", *flags, "-o", path)]
        for argv in (("verify", path), ("route", "--code", path), ("schedule", "--code", path)):
            runs.append(run(capsys, *argv))
        with open(path) as f:
            return runs, f.read()

    plain = outputs()
    assert [code for code, _, _ in plain[0]] == [0, 0, 0, 0]

    def refuse(*args):
        raise AssertionError("H was expanded")

    monkeypatch.setattr(nbqc.construct, "expand_base", refuse)
    with pytest.raises(AssertionError, match="expanded"):
        nbqc.construct.ParityCheck(GF2m(2), [[1]]).layers
    assert outputs() == plain


def test_cost_command(capsys):
    code, out, err = run(
        capsys,
        "cost", "--bq", "6", "--nm", "16", "--dc", "4",
        "--q", "64", "--gamma", "10", "--rho", "20",
    )
    assert code == 0
    assert "gsn_wires" in out
    assert "savings[P1 vs Ref5, weights=wires] = 0.6667" in out
    code, out, err = run(
        capsys,
        "cost", "--bq", "6", "--nm", "16", "--dc", "4",
        "--q", "3", "--gamma", "10", "--rho", "20",
    )
    assert (code, out) == (1, "")
    assert "q=3 is not 2^m" in err


def test_cost_weights_all(capsys):
    code, out, err = run(
        capsys,
        "cost", "--bq", "6", "--nm", "16", "--dc", "4",
        "--q", "32", "--gamma", "16", "--rho", "32", "--weights", "all",
    )
    assert code == 0
    code, out, err = run(
        capsys,
        "cost", "--bq", "6", "--nm", "16", "--dc", "4",
        "--q", "32", "--gamma", "16", "--rho", "32", "--weights", "gsn_wires=1",
    )
    assert code == 0
    for weights, message in (
        ("gsn_wires=-1,lsn_wires=1", "weight of gsn_wires must be finite and non-negative"),
        ("gsn_wires=nan", "weight of gsn_wires must be finite and non-negative"),
        ("lsn_wires=1,gsn_wires=inf", "weight of gsn_wires must be finite and non-negative"),
        ("gsn_wires=1,lsn_wires=1,gsn_wires=2", "gsn_wires is given twice"),
        ("bogus=1", "unknown category 'bogus'"),
        ("gsn_wires=abc", "bad --weights value 'gsn_wires=abc'"),
        ("lsn_demux=1", "error: no comparable weighted categories with nonzero total"),
    ):
        code, out, err = run(
            capsys,
            "cost", "--bq", "6", "--nm", "16", "--dc", "4",
            "--q", "32", "--gamma", "16", "--rho", "32", "--weights", weights,
        )
        assert (code, out) == (1, "")
        assert message in err


def test_config_file_expansion(capsys, tmp_path):
    cfg = tmp_path / "construct.cfg"
    cfg.write_text("class=2\nm=2\nt=1\ngamma=2\nrho=4\n")
    path = str(tmp_path / "from_cfg.nbqc")
    code, out, err = run(capsys, "construct", "--config", str(cfg), "-o", path)
    assert code == 0
    # explicit flag overrides the config value
    path2 = str(tmp_path / "override.nbqc")
    code, out, err = run(
        capsys, "construct", "--config", str(cfg), "--rho", "3", "-o", path2
    )
    assert code == 0
    with open(path2) as f:
        header = f.readline().split()
    assert header[8] == "3"


def test_config_file_errors(capsys, tmp_path):
    code, out, err = run(capsys, "construct", "--config", str(tmp_path / "none.cfg"))
    assert code == 2
    assert run(capsys, "construct", "--config") == (1, "", "error: --config requires a path\n")
    bad = tmp_path / "bad.cfg"
    bad.write_text("no equals sign\n")
    code, out, err = run(capsys, "construct", "--config", str(bad))
    assert code == 2


def test_main_builds_one_parser_and_keeps_calls_independent(capsys, tmp_path, monkeypatch):
    c1, c2, c3 = (str(tmp_path / f"c{i}.nbqc") for i in (1, 2, 3))
    cfg = tmp_path / "c.cfg"
    cfg.write_text("class=2\nm=2\nt=1\ngamma=2\nrho=4\n")
    calls = [
        ["construct", *TOOLCHAIN_CODES["class1"], "--poly", "d", "-o", c1],
        ["construct", "--class", "2", "--m", "4", "--t", "3", "--gamma", "16", "--rho", "16",
         "--random-surjective", "0", "-o", c2],
        ["construct", "--class", "3"],  # argparse refuses it: exit 2
        ["construct", "--config", str(cfg), "--rho", "3", "-o", c3],
        ["simulate", "--code", c1, "--snr-list", "2", "--trials", "3", "--quant", "6,2"],
        ["simulate", "--code", c1, "--snr-list", "2", "--trials", "3"],
        ["verify", c2],
        ["route", "--code", c1],
        ["cost", "--bq", "6", "--nm", "16", "--dc", "4", "--q", "8", "--gamma", "3", "--rho", "6"],
    ]
    built = []  # ArgumentParser objects constructed per call

    def outcome(argv):
        built.append(0)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    with monkeypatch.context() as patch:  # a freshly built parser for every call
        patch.setattr(nbqc.cli, "build_parser", nbqc.cli.build_parser.__wrapped__)
        fresh = [outcome(argv) for argv in calls]
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 0, 0, 1, 0, 0]

    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built[-1] += 1
        init(self, *args, **kwargs)

    nbqc.cli.build_parser.cache_clear()  # as in a new process
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    built.clear()
    assert [outcome(argv) for argv in calls] == fresh
    assert built[0] > 0 and not any(built[1:]), built
