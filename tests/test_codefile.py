"""Code file serialization: round trips and parse validation."""

import hashlib

import numpy as np
import pytest

from nbqc.codefile import CodeFileError, format_code, parse_code, read_code, write_code
from nbqc.construct import CodeSpec, build_code


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
    for name in ("edge_cols", "edge_labels", "degree"):
        assert np.array_equal(getattr(h2, name), getattr(h, name))


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


# sha256 of `format_code` output, recorded from the per-entry writer, so
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
    "c1-m2": "67ec1b2a28bf6799aa9147801b63583ad55c2fddc08211839ab44e541a1f61b0",
    "c1-m4": "761756ca0f4ee2dea6c82c4cd8eba3e8178cb974fc642168f63bb2f5ae565228",
    "c2-m2": "da53ced2a15eeadc44bcee79ac869927e346770c666358ea2a7cc7851288165a",
    "c2-m3": "823afb118ae861b5a405e0db19aa98fcb22b27af9d9a2f072e9d8013a728c822",
    "c1-m3": "c75d38a73acf213e1f48941c950f26728e000551e9bfd38f1f773e942eeb85cb",
    "q64": "bbb81c03251c2a8ed38d54bce11870300cde0a71a8c8baa9355e028e17c190d2",
    "q32": "c3ce49c42e0d5bbaa436291b48655f3e2c4d34391c023314a24b36ddfba41836",
}


@pytest.mark.parametrize("name", sorted(FILE_SPECS))
def test_format_code_golden(name):
    spec = FILE_SPECS[name]
    h, _, _, fld = build_code(spec)
    text = format_code(spec, h, fld)
    assert hashlib.sha256(text.encode()).hexdigest() == FILE_GOLDEN[name]


def good_text():
    spec = CodeSpec.class1(2, 1, 3, gamma=2, rho=3)
    h, _, _, fld = build_code(spec)
    return format_code(spec, h, fld)


def test_parse_rejects_empty():
    with pytest.raises(CodeFileError, match="empty"):
        parse_code("")


def test_parse_rejects_bad_header():
    text = good_text().replace("NBQC v1", "NBQC v2")
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
        "NBQC v1 2 3 4 2 - 3 8 b",  # Class-II with no t
        "NBQC v1 2 3 2 4 1 3 8 b",  # Class-II c and n that t does not give
        "NBQC v1 1 2 1 3 1 2 3 7",  # Class-I with a numeric t
        "NBQC v1 1 2 1 2 - 2 3 7",  # c*n != q-1
        "NBQC v1 1 2 1 3 - 2 3 5",  # polynomial not primitive
        "NBQC v1 1 3 1 7 - 2 3 -b",  # negative polynomial of bit length 4
        "NBQC v1 1 9 1 511 - 2 3 201",  # m out of range
        "NBQC v1 1 2 1 3 - 2 3 07",  # not the hex format_code writes
        "NBQC v1 1 2 1 3 -  2 3 7",  # nor its spacing
    ):
        with pytest.raises(CodeFileError, match="header"):
            parse_code(text.replace(first, header))


def test_parse_rejects_bad_checksum():
    lines = good_text().splitlines()
    lines[-1] = "#rows 6 #nnz 999"
    with pytest.raises(CodeFileError, match="nnz"):
        parse_code("\n".join(lines) + "\n")
    with pytest.raises(CodeFileError, match="checksum"):
        parse_code("\n".join(lines[:-1]) + "\n")
    lines[-1] = "#rows six #nnz 18"
    with pytest.raises(CodeFileError, match="checksum"):
        parse_code("\n".join(lines) + "\n")


def test_parse_rejects_row_index_mismatch():
    lines = good_text().splitlines()
    lines[1] = "5" + lines[1][1:]
    with pytest.raises(CodeFileError, match="row index"):
        parse_code("\n".join(lines) + "\n")


def test_parse_rejects_unsorted_columns():
    lines = good_text().splitlines()
    prefix, _, rest = lines[1].partition(": ")
    entries = rest.split()
    assert len(entries) >= 2
    lines[1] = prefix + ": " + " ".join(reversed(entries))
    with pytest.raises(CodeFileError, match="sorted"):
        parse_code("\n".join(lines) + "\n")
    # a column listed twice is not strictly increasing either
    spec = CodeSpec.class2(2, 1, gamma=2, rho=4)
    h, _, _, fld = build_code(spec)
    lines = format_code(spec, h, fld).splitlines()
    assert lines[1] == "0: (3,0) (7,1) (11,2)"
    lines[1], lines[-1] = "0: (3,0) (3,0) (7,1) (11,2)", "#rows 6 #nnz 19"
    with pytest.raises(CodeFileError, match="sorted"):
        parse_code("\n".join(lines) + "\n")


def test_parse_rejects_malformed_entries():
    lines = good_text().splitlines()
    lines[1] = lines[1] + " junk"
    with pytest.raises(CodeFileError, match="malformed"):
        parse_code("\n".join(lines) + "\n")


def test_parse_rejects_out_of_range_values():
    lines = good_text().splitlines()
    prefix, _, _ = lines[1].partition(": ")
    lines[1] = prefix + ": (99,0) " + lines[1].partition(": ")[2].split(" ", 1)[1]
    with pytest.raises(CodeFileError, match="out of range"):
        parse_code("\n".join(lines) + "\n")
    lines = good_text().splitlines()
    prefix, _, rest = lines[1].partition(": ")
    first = rest.split()[0]
    col = first[1:-1].split(",")[0]
    lines[1] = prefix + ": " + f"({col},9) " + " ".join(rest.split()[1:])
    with pytest.raises(CodeFileError, match="out of range"):
        parse_code("\n".join(lines) + "\n")


def test_parse_rejects_wrong_row_count():
    lines = good_text().splitlines()
    del lines[1]
    with pytest.raises(CodeFileError):
        parse_code("\n".join(lines) + "\n")
