"""Code file serialization: round trips and parse validation."""

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


def test_round_trip_byte_identical(built):
    spec, h, fld = built
    text = format_code(spec, h, fld)
    spec2, h2, fld2 = parse_code(text)
    assert format_code(spec2, h2, fld2) == text
    assert spec2 == spec
    assert h2.row_entries == h.row_entries
    assert fld2.primitive_poly == fld.primitive_poly


def test_file_round_trip(built, tmp_path):
    spec, h, fld = built
    path = tmp_path / "code.nbqc"
    write_code(str(path), spec, h, fld)
    spec2, h2, _ = read_code(str(path))
    assert spec2 == spec
    assert h2.row_entries == h.row_entries


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
