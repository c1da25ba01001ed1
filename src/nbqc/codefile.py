"""Text file format for constructed codes.

Layout:
    NBQC v1 <class> <m> <c> <n> <t|-> <gamma> <rho> <primitive_poly_hex>
    <row>: (<col>,<gf_power>) ...
    ...
    #rows <count> #nnz <count>

Values are stored as powers of alpha; zero entries are simply omitted, so
a power never needs a zero marker.  Re-parsing a written file reproduces
an identical sparse parity-check matrix, and writing it again is
byte-identical.
"""

from __future__ import annotations

import re

from .construct import CLASS_I, CLASS_II, CodeSpec, ParityCheck
from .gf import GF2m

MAGIC = "NBQC"
VERSION = "v1"

_ENTRY_RE = re.compile(r"\((\d+),(\d+)\)")


class CodeFileError(ValueError):
    pass


def format_code(spec: CodeSpec, h: ParityCheck, fld: GF2m) -> str:
    t_field = "-" if spec.code_class == CLASS_I else str(spec.t)
    lines = [
        f"{MAGIC} {VERSION} {spec.code_class} {spec.m} {spec.c} {spec.n} "
        f"{t_field} {spec.gamma} {spec.rho} {fld.primitive_poly:x}"
    ]
    nnz = 0
    for r, entries in enumerate(h.row_entries):
        parts = [f"({c},{fld.log(v)})" for c, v in entries]
        nnz += len(entries)
        lines.append(f"{r}: " + " ".join(parts))
    lines.append(f"#rows {h.rows} #nnz {nnz}")
    return "\n".join(lines) + "\n"


def write_code(path: str, spec: CodeSpec, h: ParityCheck, fld: GF2m) -> None:
    with open(path, "w") as f:
        f.write(format_code(spec, h, fld))


def parse_code(text: str) -> tuple[CodeSpec, ParityCheck, GF2m]:
    lines = text.splitlines()
    if not lines:
        raise CodeFileError("empty code file")
    head = lines[0].split()
    if len(head) != 10 or head[0] != MAGIC or head[1] != VERSION:
        raise CodeFileError(f"bad header: {lines[0]!r}")
    try:
        code_class, m, c, n = map(int, head[2:6])
        t = None if head[6] == "-" else int(head[6])
        gamma, rho, poly = int(head[7]), int(head[8]), int(head[9], 16)
    except ValueError:
        raise CodeFileError(f"non-numeric header field: {lines[0]!r}") from None
    if code_class == CLASS_I:
        spec = CodeSpec.class1(m, c, n, gamma, rho, primitive_poly=poly)
    elif code_class == CLASS_II:
        spec = CodeSpec.class2(m, t, gamma, rho, primitive_poly=poly)
    else:
        raise CodeFileError(f"unknown code class {code_class}")
    fld = GF2m(m, poly)
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
    row_entries: list[list[tuple[int, int]]] = []
    nnz = 0
    for r, line in enumerate(body):
        prefix, _, rest = line.partition(":")
        if prefix.strip() != str(r):
            raise CodeFileError(f"row index mismatch on line {r + 2}: {line!r}")
        entries = []
        rest = rest.strip()
        consumed = 0
        for match in _ENTRY_RE.finditer(rest):
            col, power = int(match.group(1)), int(match.group(2))
            if col >= cols:
                raise CodeFileError(f"row {r}: column {col} out of range")
            if power >= qm1:
                raise CodeFileError(f"row {r}: power {power} out of range")
            entries.append((col, fld.antilog_table[power]))
            consumed += 1
        if consumed != (len(rest.split()) if rest else 0):
            raise CodeFileError(f"row {r}: malformed entries {rest!r}")
        if entries != sorted(entries):
            raise CodeFileError(f"row {r}: columns not sorted")
        nnz += len(entries)
        row_entries.append(entries)
    if nnz != want_nnz:
        raise CodeFileError(f"checksum nnz {want_nnz} != actual {nnz}")
    h = ParityCheck(
        rows, cols, fld.q, row_entries, [(r // qm1, r % qm1) for r in range(rows)]
    )
    return spec, h, fld


def read_code(path: str) -> tuple[CodeSpec, ParityCheck, GF2m]:
    with open(path) as f:
        return parse_code(f.read())
