"""Text file format for constructed codes.

Layout:
    NBQC v1 <class> <m> <c> <n> <t|-> <gamma> <rho> <primitive_poly_hex>
    <row>: (<col>,<gf_power>) ...
    ...
    #rows <count> #nnz <count>

Values are stored as powers of alpha; zero entries are simply omitted, so
a power never needs a zero marker.  H is written from and read into its
edge arrays (see ParityCheck); re-parsing a written file reproduces equal
arrays, and writing them again is byte-identical.
"""

from __future__ import annotations

import re

import numpy as np

from .construct import CLASS_I, CLASS_II, CodeSpec, ParityCheck
from .gf import GF2m

MAGIC = "NBQC"
VERSION = "v1"

_ENTRIES_RE = re.compile(r"(?: |(?: \(\d+,\d+\))+)?")  # what follows "<row>:"
_SEPARATORS = str.maketrans("(),", "   ")


class CodeFileError(ValueError):
    pass


def _header(spec: CodeSpec, fld: GF2m) -> str:
    t_field = "-" if spec.code_class == CLASS_I else str(spec.t)
    return (
        f"{MAGIC} {VERSION} {spec.code_class} {spec.m} {spec.c} {spec.n} "
        f"{t_field} {spec.gamma} {spec.rho} {fld.primitive_poly:x}"
    )


def format_code(spec: CodeSpec, h: ParityCheck, fld: GF2m) -> str:
    """The code file of H, written from its edge arrays with one %-format
    over all rows."""
    powers = np.array(fld.log_table)[h.edge_labels]
    slots = np.arange(h.edge_cols.shape[1]) < h.degree[:, None]
    values = np.stack((h.edge_cols[slots], powers[slots]), axis=-1).ravel().tolist()
    degree = h.degree.tolist()
    edges = {d: " ".join(["(%d,%d)"] * d) for d in set(degree)}
    body = "\n".join(f"{r}: {edges[d]}" for r, d in enumerate(degree)) % tuple(values)
    return f"{_header(spec, fld)}\n{body}\n#rows {h.rows} #nnz {h.nnz()}\n"


def write_code(path: str, spec: CodeSpec, h: ParityCheck, fld: GF2m) -> None:
    with open(path, "w") as f:
        f.write(format_code(spec, h, fld))


def parse_code(text: str) -> tuple[CodeSpec, ParityCheck, GF2m]:
    """Read a code file into (spec, H, field), H as its edge arrays.

    The header must be the one format_code writes for the spec it names;
    each row line must read `<row>: (<col>,<power>) ...` with strictly
    increasing columns.  Every violation raises CodeFileError.
    """
    lines = text.splitlines()
    if not lines:
        raise CodeFileError("empty code file")
    head = lines[0].split()
    if len(head) != 10 or head[0] != MAGIC or head[1] != VERSION:
        raise CodeFileError(f"bad header: {lines[0]!r}")
    try:
        code_class, m, c, n, gamma, rho = (int(head[i]) for i in (2, 3, 4, 5, 7, 8))
        fld = GF2m(m, int(head[9], 16))
        if code_class == CLASS_I:
            spec = CodeSpec.class1(m, c, n, gamma, rho, primitive_poly=fld.primitive_poly)
        elif code_class == CLASS_II:
            spec = CodeSpec.class2(m, int(head[6]), gamma, rho, primitive_poly=fld.primitive_poly)
        else:
            raise ValueError(f"unknown code class {code_class}")
    except ValueError as exc:
        raise CodeFileError(f"bad header {lines[0]!r}: {exc}") from None
    if _header(spec, fld) != lines[0]:
        raise CodeFileError(f"bad header {lines[0]!r}: expected {_header(spec, fld)!r}")
    qm1 = fld.q - 1
    rows, cols = gamma * qm1, rho * qm1

    if not lines[-1].startswith("#rows"):
        raise CodeFileError("missing checksum line")
    chk = lines[-1].split()
    if (
        len(chk) != 4 or chk[0] != "#rows" or chk[2] != "#nnz"
        or not (chk[1] + chk[3]).isdecimal()
    ):
        raise CodeFileError(f"bad checksum line: {lines[-1]!r}")
    want_rows, want_nnz = int(chk[1]), int(chk[3])

    body = lines[1:-1]
    if len(body) != rows or want_rows != rows:
        raise CodeFileError(f"expected {rows} rows, file has {len(body)} (checksum {want_rows})")
    rests = []
    for r, line in enumerate(body):
        prefix, _, rest = line.partition(":")
        if prefix != str(r):
            raise CodeFileError(f"row index mismatch on line {r + 2}: {line!r}")
        if not _ENTRIES_RE.fullmatch(rest):
            raise CodeFileError(f"row {r}: malformed entries {rest!r}")
        rests.append(rest)
    degree = np.array([rest.count("(") for rest in rests], dtype=np.intp)
    if degree.sum() != want_nnz:
        raise CodeFileError(f"checksum nnz {want_nnz} != actual {degree.sum()}")
    slots = np.arange(degree.max(initial=0)) < degree[:, None]
    fields = np.zeros(slots.shape + (2,), dtype=np.intp)  # (column, power) per slot
    if slots.any():  # np.fromstring would read no numbers as [0]
        numbers = np.fromstring(" ".join(rests).translate(_SEPARATORS), dtype=np.intp, sep=" ")
        fields[slots] = numbers.reshape(-1, 2)
    for k, (what, limit) in enumerate((("column", cols), ("power", qm1))):
        bad = np.argwhere(fields[..., k] >= limit)
        if len(bad):
            r, s = bad[0]
            raise CodeFileError(f"row {r}: {what} {fields[r, s, k]} out of range")
    unsorted = np.argwhere((np.diff(fields[..., 0], axis=1) <= 0) & slots[:, 1:])
    if len(unsorted):
        raise CodeFileError(f"row {unsorted[0, 0]}: columns not sorted strictly increasing")
    labels = np.where(slots, np.array(fld.antilog_table)[fields[..., 1]], 0)
    return spec, ParityCheck(rows, cols, fld.q, fields[..., 0].copy(), labels), fld


def read_code(path: str) -> tuple[CodeSpec, ParityCheck, GF2m]:
    with open(path) as f:
        return parse_code(f.read())
