"""Code file serialization: round trips and parse validation."""

import hashlib
import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from nbqc.cli import main
from nbqc.codefile import CodeFileError, format_code, parse_code, read_code, write_code
from nbqc.construct import CodeSpec, ParityCheck, build_code
from nbqc.gf import GF2m
from oracles import code_file_text, same_layers

# `nbqc construct` flags of the benchmark's codes, read from its workload table
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
CLI_CODES = runpy.run_path(str(WORKLOADS))["CODES"]


@pytest.fixture(params=["class1", "class2"])
def built(request):
    # parsed specs always carry an explicit polynomial, so write one
    if request.param == "class1":
        spec = CodeSpec.class1(2, 1, 3, gamma=2, rho=3, primitive_poly=0b111)
    else:
        spec = CodeSpec.class2(3, 1, gamma=3, rho=6, primitive_poly=0b1011)
    h, _, _, fld = build_code(spec)
    return spec, h, fld


def assert_same_arrays(h2, h):
    assert (h2.rows, h2.cols, h2.q) == (h.rows, h.cols, h.q)
    assert same_layers(h2, h)


def test_round_trip_byte_identical(built):
    spec, h, fld = built
    text = format_code(spec, h, fld)
    spec2, h2, fld2 = parse_code(text)
    assert format_code(spec2, h2, fld2) == text
    assert spec2 == spec
    assert_same_arrays(h2, h)
    assert fld2.primitive_poly == fld.primitive_poly


def test_file_round_trip(built, tmp_path):
    spec, h, fld = built
    path = tmp_path / "code.nbqc"
    write_code(str(path), spec, h, fld)
    spec2, h2, _ = read_code(str(path))
    assert spec2 == spec
    assert_same_arrays(h2, h)


# sha256 of `format_code` output, recorded from the region writer, so
# that a new in-memory form of H cannot change a code file unnoticed
FILE_SPECS = {
    # the acceptance suite's SANITY_SPECS
    "c1-m2": CodeSpec.class1(2, 1, 3, gamma=2, rho=3),
    "c1-m4": CodeSpec.class1(4, 3, 5, gamma=3, rho=6),
    "c2-m2": CodeSpec.class2(2, 1, gamma=2, rho=4),
    "c2-m3": CodeSpec.class2(3, 1, gamma=3, rho=6),
    "c1-m3": CodeSpec.class1(3, 7, 1, gamma=3, rho=5),
    # the headline codes: 64-ary (1260, 630) and 32-ary (992, 496)
    "q64": CodeSpec.class1(6, 7, 9, gamma=10, rho=20),
    "q32": CodeSpec.class2(5, 4, gamma=16, rho=32),
}
FILE_GOLDEN = {
    "c1-m2": "61683b7cf40836c3aefeec8f06f20093ff6d8f340cc30621af51f9b25c9fb3f5",
    "c1-m4": "9b7973e70814e9ef3a5cea8378e1b80797705fb1d729f9dc0a30274a41a8009f",
    "c2-m2": "529a48a3d8cfb5233c62533acd03a08fb3d887380198ce90aa20600bd86805aa",
    "c2-m3": "c3c35fecb7657c37118732467b33195151582c82f1b091deabfb0c7d722cef68",
    "c1-m3": "c4589f112a70480ee09de17ab707acdb01117c183469f6be241c31b5184308ab",
    "q64": "3556cc79c087925114ec3b8017f04b6357842c54be6b7b68586206bfe58294ae",
    "q32": "a75d4ae5d8ef1cf8a7599eb6ff9c24c522fecdf39662e38df5d5d2b07d4e3b3d",
}


@pytest.mark.parametrize("name", sorted(FILE_SPECS))
def test_format_code_golden(name):
    spec = FILE_SPECS[name]
    h, _, _, fld = build_code(spec)
    text = format_code(spec, h, fld)
    assert hashlib.sha256(text.encode()).hexdigest() == FILE_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CLI_CODES))
def test_cli_codes_round_trip(name, tmp_path, capsys):
    flags = CLI_CODES[name]
    path = tmp_path / f"{name}.nbqc"
    assert main(["construct", *flags, "-o", str(path)]) == 0, capsys.readouterr().err
    spec, h, fld = read_code(str(path))
    given = dict(zip(flags[::2], flags[1::2]))
    assert (spec.code_class, spec.m, spec.gamma, spec.rho) == tuple(
        int(given[f]) for f in ("--class", "--m", "--gamma", "--rho")
    )
    # one header line and one line per block row, a few bytes per block
    assert len(path.read_text().splitlines()) == spec.gamma + 1
    assert path.stat().st_size < 100 + 4 * spec.gamma * spec.rho
    want, _, _, _ = build_code(spec)
    assert_same_arrays(h, want)


@pytest.mark.parametrize("ending, last", [("\r\n", "\r\n"), ("\n", ""), ("\r\n", ""), ("\r", "\r")])
def test_only_line_endings_and_the_final_newline_may_differ(built, tmp_path, ending, last):
    spec, h, fld = built
    text = format_code(spec, h, fld)
    variant = ending.join(text.split("\n")[:-1]) + last
    path, out = tmp_path / "variant.nbqc", tmp_path / "out.nbqc"
    path.write_bytes(variant.encode())
    for spec2, h2, fld2 in (parse_code(variant), read_code(str(path))):
        assert spec2 == spec and np.array_equal(h2.region, h.region)
        assert format_code(spec2, h2, fld2) == text
        write_code(str(out), spec2, h2, fld2)
        assert out.read_bytes() == text.encode()


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
def test_read_code_names_the_line_of_a_non_ascii_byte(tmp_path, ending):
    lines = good_text().split("\n")[:-1]
    path = tmp_path / "bad.nbqc"
    for line, byte in ((1, 0xFF), (2, 0x80), (3, 0xD9)):
        bad = [x.encode() for x in lines]
        bad[line - 1] = bad[line - 1][:2] + bytes([byte]) + bad[line - 1][2:]
        path.write_bytes(ending.encode().join(bad) + ending.encode())
        with pytest.raises(CodeFileError, match=f"^line {line}: byte {byte:#04x} is not ASCII$"):
            read_code(str(path))


@st.composite
def masked_codes(draw):
    """A spec of m = 2..8 and a drawn gamma x rho, and a random region over
    its field with zero blocks, as a masked region has, often in long runs."""
    m = draw(st.integers(2, 8))
    fld = GF2m(m)
    q = fld.q
    gamma, rho = draw(st.integers(1, min(q - 1, 6))), draw(st.integers(1, min(q - 1, 40)))
    if draw(st.booleans()):
        spec = CodeSpec.class1(m, 1, q - 1, gamma=gamma, rho=rho, primitive_poly=fld.primitive_poly)
    else:
        t = draw(st.integers(1, m - 1))
        spec = CodeSpec.class2(m, t, gamma=gamma, rho=rho, primitive_poly=fld.primitive_poly)
    values = draw(hnp.arrays(np.int64, (gamma, rho), elements=st.integers(0, q - 1)))
    return spec, fld, values * draw(hnp.arrays(bool, (gamma, rho)))


@given(masked_codes())
@settings(max_examples=150, deadline=None)
def test_masked_regions_round_trip(case):
    spec, fld, region = case
    text = format_code(spec, ParityCheck(fld, region), fld)
    assert text == code_file_text(spec, region, fld.primitive_poly)
    spec2, h2, _ = parse_code(text)
    assert spec2 == spec
    assert h2.region.dtype == np.int64 and np.array_equal(h2.region, region)


def written(spec, mask=None):
    h, _, _, fld = build_code(spec)
    if mask is not None:
        h = ParityCheck(fld, h.region * mask)
    return format_code(spec, h, fld)


def good_text():
    return written(CodeSpec.class1(2, 1, 3, gamma=2, rho=3))


def test_good_text_layout():
    # the 2x3 region of the 3x3 Class-I base matrix over GF(4), two zero blocks
    assert good_text() == "NBQC v2 1 2 1 3 - 2 3 7\n0 3 2\n3 0 1\n"


def test_parse_rejects_empty():
    with pytest.raises(CodeFileError, match="empty"):
        parse_code("")


def test_parse_rejects_bad_header():
    text = good_text().replace("NBQC v2", "NBQC v3")
    with pytest.raises(CodeFileError, match="header"):
        parse_code(text)
    with pytest.raises(CodeFileError, match="header"):
        parse_code("garbage\n")
    text = good_text()
    first = text.splitlines()[0]
    for field, value in ((4, "x"), (8, "1.5"), (9, "xyz")):  # c, rho, polynomial
        head = first.split()
        head[field] = value
        with pytest.raises(CodeFileError, match="header"):
            parse_code(text.replace(first, " ".join(head)))
    # fields CodeSpec or GF2m refuse, and headers format_code would not write
    for header in (
        "NBQC v2 2 3 4 2 - 3 8 b",  # Class-II with no t
        "NBQC v2 2 3 2 4 1 3 8 b",  # Class-II c and n that t does not give
        "NBQC v2 1 2 1 3 1 2 3 7",  # Class-I with a numeric t
        "NBQC v2 1 2 1 2 - 2 3 7",  # c*n != q-1
        "NBQC v2 1 2 1 3 - 2 3 5",  # polynomial not primitive
        "NBQC v2 1 3 1 7 - 2 3 -b",  # negative polynomial of bit length 4
        "NBQC v2 1 9 1 511 - 2 3 201",  # m out of range
        "NBQC v2 1 2 1 3 - 2 3 07",  # not the hex format_code writes
        "NBQC v2 1 2 1 3 -  2 3 7",  # nor its spacing
    ):
        with pytest.raises(CodeFileError, match="header"):
            parse_code(text.replace(first, header))


def test_parse_rejects_v1_edge_list():
    # the same code in the edge-list layout, which listed every edge of H
    v1 = (
        "NBQC v1 1 2 1 3 - 2 3 7\n"
        "0: (5,2) (7,1)\n1: (3,0) (8,2)\n2: (4,1) (6,0)\n"
        "3: (2,2) (6,0)\n4: (0,0) (7,1)\n5: (1,1) (8,2)\n"
        "#rows 6 #nnz 12\n"
    )
    with pytest.raises(CodeFileError, match="bad header: 'NBQC v1"):
        parse_code(v1)


def edited(line: int, new: str | None) -> str:
    """good_text() with its line `line` (1-based) replaced, or deleted if
    new is None."""
    lines = good_text().splitlines()
    lines[line - 1 : line] = [] if new is None else [new]
    return "\n".join(lines) + "\n"


def assert_refused(cases):
    for text, message in cases:
        with pytest.raises(CodeFileError, match=message):
            parse_code(text)


def test_parse_rejects_wrong_row_count():
    head = good_text().splitlines()[0]
    assert_refused([
        (edited(3, None), "line 3: expected 2 region lines, file has 1"),
        (head + "\n", "line 2: expected 2 region lines, file has 0"),
        (good_text() + "1 2 3\n", "line 4: expected 2 region lines, file has 3"),
        (good_text() + "\n", "line 4: expected 2 region lines, file has 3"),
    ])


def test_parse_rejects_malformed_entries():
    assert_refused([
        (edited(2, "0 3"), "line 2: expected 3 entries, got 2"),
        (edited(3, "3 0 1 2"), "line 3: expected 3 entries, got 4"),
        (edited(3, ""), "line 3: expected 3 entries, got 1"),
        (edited(2, "0 3 2 "), "line 2: expected 3 entries, got 4"),
        (edited(3, "3 0  1"), "line 3: expected 3 entries, got 4"),
        (edited(2, "0 x 2"), "line 2: 'x' is not a decimal element below q = 4"),
        (edited(3, "3 -1 1"), "line 3: '-1' is not a decimal element"),
        (edited(2, "0 3 (2,0)"), r"line 2: '\(2,0\)' is not a decimal element"),
        (edited(2, "0 3 \u0662"), "line 2: '\u0662' is not a decimal element"),
        # format_code writes no leading zero, so none is read
        (edited(2, "0 03 2"), "line 2: '03' is not a decimal element below q = 4"),
        (edited(3, "00 0 1"), "line 3: '00' is not a decimal element below q = 4"),
        (edited(2, "0 3 " + "0" * 5000 + "1"), "line 2: '0000"),
    ])


def test_parse_rejects_out_of_range_values():
    assert_refused([
        (edited(3, "3 4 1"), "line 3: '4' is not a decimal element below q = 4"),
        (edited(2, "0 3 99999999999999999999999"), "line 2: '99999999999999999999999' is not"),
        (edited(2, "0 3 " + "9" * 5000), "line 2: '9999"),  # past int()'s digit limit
    ])


def test_format_code_refuses_what_it_cannot_write():
    spec = CodeSpec.class1(2, 1, 3, gamma=2, rho=3)
    h, _, _, fld = build_code(spec)
    with pytest.raises(ValueError, match="block region"):
        format_code(CodeSpec.class1(2, 1, 3, gamma=2, rho=2), h, fld)


M8_MASK = np.ones((3, 40), np.int64)
M8_MASK[1, 4:31] = 0  # a run of 27 zero blocks

# written files of a 4-ary, a 16-ary and a masked 256-ary code (one-, two-
# and three-digit elements)
SMALL_TEXTS = [
    good_text(),
    written(FILE_SPECS["c1-m4"]),
    written(CodeSpec.class1(8, 15, 17, gamma=3, rho=40), M8_MASK),
]


@st.composite
def one_token_replaced(draw):
    """A written file with one body token replaced by a drawn string, the
    1-based number of its line, and whether the string is an element as
    format_code spells it."""
    text = draw(st.sampled_from(SMALL_TEXTS))
    q = parse_code(text)[2].q
    lines = text.splitlines()
    r = draw(st.integers(1, len(lines) - 1))
    tokens = lines[r].split(" ")
    value = st.integers(0, q - 1)
    token = draw(st.one_of(
        value.map(str),  # canonical
        st.builds(lambda z, v: "0" * z + str(v), st.integers(1, 3), value),  # leading zeros
        st.builds(lambda sign, v: sign + str(v), st.sampled_from("+-"), value),
        st.builds(lambda d, v: str(v) + d, st.sampled_from("\u0660\u0663\u06f1\u0967\uff11"), value),
        st.just(""),
        st.integers(q, 10**30).map(str),  # q or more
        st.builds(lambda z, v: "0" * z + str(v), st.integers(4300, 5000), value),  # very long
    ))
    tokens[draw(st.integers(0, len(tokens) - 1))] = token
    lines[r] = " ".join(tokens)
    return "\n".join(lines) + "\n", r + 1, token in {str(v) for v in range(q)}


@given(one_token_replaced())
@settings(max_examples=200, deadline=None)
def test_parse_reads_only_what_format_code_writes(case):
    text, line, canonical = case
    try:
        parsed = parse_code(text)
    except CodeFileError as exc:
        assert str(exc).startswith(f"line {line}: ") and not canonical
    else:
        assert format_code(*parsed) == text and canonical
