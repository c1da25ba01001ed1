"""Text file format for constructed codes.

Layout:
    NBQC v2 <class> <m> <c> <n> <t|-> <gamma> <rho> <primitive_poly_hex>
    <rho decimal field elements of base-matrix row 0>
    ...
    <rho decimal field elements of base-matrix row gamma-1>

The body is the top-left gamma x rho region of the base matrix W, one
line per block row, with 0 for a zero block.  It is the region that
ParityCheck stores: the writer prints h.region and the reader builds H
from the region it reads.  A file parses only if each line is what
format_code writes, each element spelled as str() spells it (no sign, no
leading zero), so writing a parsed file again is byte-identical; only
line endings and the final newline may differ.
"""

from __future__ import annotations

import numpy as np

from .construct import CLASS_I, CodeSpec, ParityCheck
from .gf import GF2m

MAGIC = "NBQC"
VERSION = "v2"


class CodeFileError(ValueError):
    pass


def _header(spec: CodeSpec, fld: GF2m) -> str:
    t_field = "-" if spec.code_class == CLASS_I else str(spec.t)
    return (
        f"{MAGIC} {VERSION} {spec.code_class} {spec.m} {spec.c} {spec.n} "
        f"{t_field} {spec.gamma} {spec.rho} {fld.primitive_poly:x}"
    )


def format_code(spec: CodeSpec, h: ParityCheck, fld: GF2m) -> str:
    """The code file of H: its header and its base-matrix region."""
    if h.region.shape != (spec.gamma, spec.rho):
        raise ValueError(f"H has a {h.region.shape} block region, spec says {(spec.gamma, spec.rho)}")
    body = "\n".join(" ".join(map(str, row)) for row in h.region.tolist())
    return f"{_header(spec, fld)}\n{body}\n"


def write_code(path: str, spec: CodeSpec, h: ParityCheck, fld: GF2m) -> None:
    with open(path, "w") as f:
        f.write(format_code(spec, h, fld))


def parse_code(text: str) -> tuple[CodeSpec, ParityCheck, GF2m]:
    """Read a code file into (spec, H, field), H built from the region.

    A line that is not as format_code writes it raises CodeFileError
    naming the line.
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
        t = None if head[6] == "-" else int(head[6])
        spec = CodeSpec(code_class, m, c, n, gamma, rho, t, fld.primitive_poly)
    except ValueError as exc:
        raise CodeFileError(f"bad header {lines[0]!r}: {exc}") from None
    if _header(spec, fld) != lines[0]:
        raise CodeFileError(f"bad header {lines[0]!r}: expected {_header(spec, fld)!r}")

    body = lines[1:]
    if len(body) != gamma:
        where = len(lines) + 1 if len(body) < gamma else gamma + 2
        raise CodeFileError(f"line {where}: expected {gamma} region lines, file has {len(body)}")
    element = {str(v): v for v in range(fld.q)}  # the spellings format_code writes
    region = np.zeros((gamma, rho), dtype=np.int64)
    for r, line in enumerate(body):
        tokens = line.split(" ")
        if len(tokens) != rho:
            raise CodeFileError(f"line {r + 2}: expected {rho} entries, got {len(tokens)}")
        try:
            region[r] = [element[t] for t in tokens]
        except KeyError as bad:  # a KeyError's str is its key's repr
            raise CodeFileError(f"line {r + 2}: {bad} is not a decimal element below q = {fld.q}") from None
    return spec, ParityCheck(fld, region), fld


def read_code(path: str) -> tuple[CodeSpec, ParityCheck, GF2m]:
    with open(path) as f:
        return parse_code(f.read())
