"""Reference implementations that the tests compare the decoder against,
and helpers that only the tests use."""

import numpy as np

from nbqc.cost import CATEGORIES
from nbqc.decode import normalize
from nbqc.verify import CheckResult, _scope

FORWARD = "forward"
BACKWARD = "backward"


def permute_message(msg: np.ndarray, h, direction: str, fld) -> np.ndarray:
    """Edge-label action on messages, the reference for the decoder's
    folded gather and scatter: `msg` is (..., q) and `h` one label or an
    array of labels that broadcasts to msg.shape[:-1].

    Forward maps out[a] = msg[h^-1 * a] so the check constraint becomes an
    unweighted sum; backward is the inverse.  Composing both is identity.
    """
    h = np.asarray(h)
    if not h.all():
        raise ValueError("edge label must be nonzero")
    if direction == FORWARD:
        h = fld.inv_table[h]
    elif direction != BACKWARD:
        raise ValueError(f"unknown direction {direction!r}")
    return np.take_along_axis(msg, np.broadcast_to(fld.mul_table[h], msg.shape), axis=-1)


def quantize_vec(
    vec: np.ndarray, quant: tuple[int, int] | None, out: np.ndarray | None = None
) -> np.ndarray:
    """Unsigned (b_q, b_f) uniform quantization of float messages, the
    reference for the decoder's rounding to integer codes: round to the
    nearest multiple of 2^-b_f (ties up), saturating at (2^b_q - 1) * 2^-b_f.
    The result goes to `out` if given (which may be `vec`); quant=None
    returns `vec` unchanged."""
    if quant is None:
        return vec
    step = 2.0 ** -quant[1]
    out = np.divide(vec, step, out=out)
    out += 0.5
    np.floor(out, out=out)
    np.minimum(out, 2 ** quant[0] - 1, out=out)
    out *= step
    return out


def channel_reliability_products(tx_symbols, sigma, fld, rng) -> np.ndarray:
    """The channel's reliabilities as a sum over each symbol's m bits of
    (bit of a != hard decision) * |LLR|, formed as one (F, symbols, q, m)
    product: the reference for channel_reliability's doubled cost table.
    Same arguments, noise stream and result shape."""
    sigma = np.asarray(sigma, dtype=float)
    stacked = sigma.ndim == 1
    shifts = np.arange(fld.m)
    tx = np.asarray(tx_symbols, dtype=int)
    bit_table = (np.arange(fld.q)[:, None] >> shifts) & 1  # bit i of symbol a
    bits = (tx[:, None] >> shifts) & 1
    noise = np.stack([r.standard_normal(bits.shape) for r in (rng if stacked else [rng])])
    sigma = sigma.reshape(-1, 1, 1)
    var = np.reshape([s**2 for s in sigma.ravel().tolist()], sigma.shape)
    y = (1.0 - 2.0 * bits) + sigma * noise
    mag = np.abs(2.0 * y / var)
    vec = ((bit_table != (y < 0)[..., None, :]) * mag[..., None, :]).sum(axis=-1)
    return vec if stacked else vec[0]


def gf_mul_carryless(a: int, b: int, m: int, poly: int) -> int:
    """Product in GF(2^m) from first principles, the reference for the
    field's tables: carry-less (XOR) multiplication of the two bit
    polynomials, reduced mod the degree-m polynomial `poly`."""
    prod = 0
    for i in range(m):
        if b >> i & 1:
            prod ^= a << i
    for i in range(2 * m - 2, m - 1, -1):
        if prod >> i & 1:
            prod ^= poly << (i - m)
    return prod


def minmax_kernel_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Min-max kernel from its full table, the reference for the decoder's
    halving kernel: C[x, ...] = min over y of max(a[y, ...], b[x ^ y, ...])
    for messages with their q entries on axis 0."""
    q = len(a)
    xor = np.bitwise_xor.outer(np.arange(q), np.arange(q))
    return np.maximum(a[:, None], b[xor]).min(axis=0)


def check_node_brute_force(inputs: list[np.ndarray]) -> list[np.ndarray]:
    """Direct enumeration of all satisfying configurations (oracle)."""
    d = len(inputs)
    if d < 2:
        raise ValueError(f"check degree must be >= 2, got {d}")
    q = len(inputs[0])
    if q ** (d - 1) > 1 << 20:
        raise ValueError(f"enumeration guard exceeded: {q}^{d - 1} configurations")
    outs = []
    for i in range(d):
        others = [j for j in range(d) if j != i]
        agg_max = np.zeros((1,) * len(others))
        agg_xor = np.zeros((1,) * len(others), dtype=np.intp)
        for ax, j in enumerate(others):
            shape = [1] * len(others)
            shape[ax] = q
            agg_max = np.maximum(agg_max, inputs[j].reshape(shape))
            agg_xor = agg_xor ^ np.arange(q).reshape(shape)
        out = np.full(q, np.inf)
        np.minimum.at(out, agg_xor.ravel(), agg_max.ravel())
        outs.append(normalize(out))
    return outs


def gf_rank(h, fld) -> int:
    """Rank of H over GF(q), the reference for a code's true dimension
    k = cols - rank: Gaussian elimination of the dense matrix through the
    field's product and inverse tables, one pivot column at a time."""
    a = np.zeros((h.rows, h.cols), dtype=np.uint8)
    for t, (cols, labels) in enumerate(h.layers):
        a[t * (h.q - 1) + np.arange(h.q - 1)[:, None], cols] = labels
    rank = 0
    for col in range(h.cols):
        nonzero = np.flatnonzero(a[rank:, col])
        if not len(nonzero):
            continue
        p = rank + nonzero[0]
        a[[rank, p]] = a[[p, rank]]
        a[rank] = fld.mul_table[fld.inv_table[a[rank, col]], a[rank]]  # pivot 1
        below = rank + 1 + np.flatnonzero(a[rank + 1 :, col])
        a[below] ^= fld.mul_table[a[below, col][:, None], a[rank]].astype(np.uint8)
        rank += 1
        if rank == h.rows:
            break
    return rank


def same_layers(h, g) -> bool:
    """Whether two parity checks have equal layers, array for array."""
    return len(h.layers) == len(g.layers) and all(
        np.array_equal(a, b) for x, y in zip(h.layers, g.layers) for a, b in zip(x, y)
    )


def per_category_ratios(a, b) -> dict[str, float | None]:
    """a's count over b's in every cost category; None where either design
    lacks the category or b's count is 0."""
    out = {}
    for cat in CATEGORIES:
        va, vb = getattr(a, cat), getattr(b, cat)
        out[cat] = None if va is None or vb is None or vb == 0 else va / vb
    return out


def schedule_text(moves) -> str:
    """`nbqc schedule`'s text formatted one `src -> dst` f-string at a time,
    the reference for `render_schedule`'s byte matrices."""
    moves = np.asarray(moves).tolist()
    return "\n".join(
        f"transition layer {t} to layer {(t + 1) % len(moves)}: "
        + ", ".join(f"{src} -> {dst}" for src, dst in enumerate(perm))
        for t, perm in enumerate(moves)
    )


def code_file_text(spec, region, poly: int) -> str:
    """A code file spelled one `str()` at a time, the reference for
    `format_code`'s token table: the header, then each region row's
    elements joined by single spaces, every line ending in a newline."""
    t = "-" if spec.t is None else spec.t
    lines = [f"NBQC v2 {spec.code_class} {spec.m} {spec.c} {spec.n} {t} {spec.gamma} {spec.rho} {poly:x}"]
    lines += (" ".join(map(str, row)) for row in np.asarray(region).tolist())
    return "".join(line + "\n" for line in lines)


def compare_full_grid(check_id, w, c, n, partner, act=None, wrapped=None, values=True) -> CheckResult:
    """`verify._compare` over every block (i, j) and offset (k, l) of the
    whole c*n x c*n base matrix, pairs outside the region w masked out:
    the reference for its grid over the region alone."""
    ent, dim = np.asarray(w), c * n
    rr, rc = ent.shape
    i, j, k, l = np.indices((c, c, n, n))
    (r1, c1), (r2, c2) = (i * n + k, j * n + l), partner(i, j, k, l)
    keep = (np.maximum(r1, r2) < rr) & (np.maximum(c1, c2) < rc)
    if wrapped is not None and not rr == rc == dim:
        keep &= ~wrapped(i, j)
    a = ent[np.minimum(r1, rr - 1), np.minimum(c1, rc - 1)]
    b = ent[np.minimum(r2, rr - 1), np.minimum(c2, rc - 1)]
    bad = np.argwhere(keep & (a != (b if act is None else act(b))))
    if not len(bad):
        return CheckResult(check_id, _scope(rr, rc, dim), True)
    at = tuple(bad[0])
    cex = ((int(at[0]), int(at[1])), (int(at[2]), int(at[3])))
    cex += (int(a[at]), int(b[at])) if values else ()
    return CheckResult(check_id, _scope(rr, rc, dim), False, cex)
