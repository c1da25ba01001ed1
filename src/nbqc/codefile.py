"""Text file format for constructed codes, and the digit tables that spell
the decimal numbers nbqc prints in bulk.

Layout:
    NBQC v2 <class> <m> <c> <n> <t|-> <gamma> <rho> <primitive_poly_hex>
    <rho decimal field elements of base-matrix row 0>
    ...
    <rho decimal field elements of base-matrix row gamma-1>

The body is the top-left gamma x rho region of the base matrix W, the one
ParityCheck stores: a line per block row, 0 for a zero block.  A code file
is ASCII and parses only if it is byte for byte what format_code writes
(each element as str() spells it, one space apart), but for line endings
(\\r\\n, \\r) and the final newline.  The reader checks just that, against
format_code's body for the region read off each token's last digits; it
reads a refused body again line by line only to name a bad line.
"""

from __future__ import annotations

import functools

import numpy as np

from .construct import CLASS_I, CodeSpec, ParityCheck
from .gf import GF2m

MAGIC = "NBQC"
VERSION = "v2"
_SYMBOL = np.minimum(np.arange(256, dtype=np.uint8) - np.uint8(48), 10).astype(np.intp)  # digit, or 10


class CodeFileError(ValueError):
    pass


def digit_table(size: int, head: bytes, tail: bytes) -> np.ndarray:
    """0 .. size-1 as fixed-width void items: `head`, ASCII digits right-aligned behind 0 bytes, `tail`."""
    width, ones = len(str(size - 1)), len(head) + len(str(size - 1)) - 1
    table = np.frombuffer(head + bytes(width) + tail, np.uint8)[None]
    for p in range(width):  # the numbers below 10**(p+1): copies of those below 10**p, then place p
        table = np.concatenate((table,) * min(10, -(-size // len(table))))[:size]
        table[:, ones - p] = np.arange(48, 58, dtype=np.uint8).repeat(10**p)[: len(table)]
    for p in range(1, width):  # no leading zeros
        table[: 10**p, ones - p] = 0
    return table.view(f"V{table.shape[1]}").ravel()


def ascii_text(chars: np.ndarray) -> str:
    """The text of an array of ASCII bytes, its 0 bytes dropped."""
    return chars.tobytes().translate(None, b"\0").decode("ascii")


@functools.cache
def _element_tables(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only: each element's body token (digits, a space), the offsets of the w = len(str(q-1))
    bytes before a separator, and the value of w `_SYMBOL`s: the digits after the last non-digit."""
    w = len(str(q - 1))
    window = np.indices((11,) * w).reshape(w, -1)  # row k: symbol k of each window
    live = np.logical_and.accumulate(window[::-1] < 10)[::-1]
    values = np.minimum(10 ** np.arange(w - 1, -1, -1) @ (window * live), q - 1)
    tables = digit_table(q, b"", b" "), np.arange(-w, 0)[:, None], values.reshape((11,) * w)
    for table in tables:
        table.flags.writeable = False
    return tables


def _body(region: np.ndarray, q: int) -> str:
    text = _element_tables(q)[0].take(region)
    text.view(np.uint8).reshape(len(region), -1)[:, -1] = ord("\n")  # each row's last space
    return ascii_text(text)


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
    return f"{_header(spec, fld)}\n{_body(h.region, fld.q)}"


def write_code(path: str, spec: CodeSpec, h: ParityCheck, fld: GF2m) -> None:
    with open(path, "wb") as f:  # ASCII and \n line endings whatever the locale and platform
        f.write(format_code(spec, h, fld).encode("ascii"))


def parse_code(text: str) -> tuple[CodeSpec, ParityCheck, GF2m]:
    """Read a code file into (spec, H, field), H built from the region.

    A file that is not as format_code writes it raises CodeFileError
    naming its first bad line.
    """
    if not text:
        raise CodeFileError("empty code file")
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    line, _, body = (text if text.endswith("\n") else text + "\n").partition("\n")
    head = line.split()
    if len(head) != 10 or head[0] != MAGIC or head[1] != VERSION:
        raise CodeFileError(f"bad header: {line!r}")
    try:
        code_class, m, c, n, gamma, rho = (int(head[i]) for i in (2, 3, 4, 5, 7, 8))
        fld = GF2m(m, int(head[9], 16))
        t = None if head[6] == "-" else int(head[6])
        spec = CodeSpec(code_class, m, c, n, gamma, rho, t, fld.primitive_poly)
    except ValueError as exc:
        raise CodeFileError(f"bad header {line!r}: {exc}") from None
    if _header(spec, fld) != line:
        raise CodeFileError(f"bad header {line!r}: expected {_header(spec, fld)!r}")

    data = np.frombuffer(body.encode("ascii", "replace"), np.uint8)  # non-ASCII: "?", in no element
    ends = (data < 48).nonzero()[0]  # the separators: "0" is 48, space and newline are below
    if len(ends) == gamma * rho:  # before the first token, "wrap" reads the final newline
        _, back, values = _element_tables(fld.q)
        region = values[tuple(_SYMBOL.take(data.take(ends + back, mode="wrap")))].reshape(gamma, rho)
        if _body(region, fld.q) == body:
            return spec, ParityCheck(fld, region), fld
    lines = body.split("\n")[:-1]  # refused: name the first line that is not as format_code writes it
    if len(lines) != gamma:
        where = min(len(lines), gamma) + 2
        raise CodeFileError(f"line {where}: expected {gamma} region lines, file has {len(lines)}")
    element = {str(v) for v in range(fld.q)}
    for r, tokens in enumerate((line.split(" ") for line in lines), 2):
        if len(tokens) != rho:
            raise CodeFileError(f"line {r}: expected {rho} entries, got {len(tokens)}")
        if bad := [token for token in tokens if token not in element]:
            raise CodeFileError(f"line {r}: {bad[0]!r} is not a decimal element below q = {fld.q}")
    raise CodeFileError("region not as format_code writes it")


def read_code(path: str) -> tuple[CodeSpec, ParityCheck, GF2m]:
    """parse_code of the file at path, whose bytes must be ASCII."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start] + b"?").splitlines())  # the line the byte is on
        raise CodeFileError(f"line {line}: byte {data[exc.start]:#04x} is not ASCII") from None
    return parse_code(text)
