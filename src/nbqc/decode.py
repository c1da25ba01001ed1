"""Layered Min-Max decoding over a BPSK/AWGN channel.

Messages are q-entry vectors of non-negative reliabilities indexed by the
polynomial-bit value of the field element (the public helpers stack them
along the last axis), each normalized to minimum exactly 0 (the most
likely symbol has reliability 0).

The decoder reads only H's layers, `h.layers`, one per CPM block row:
(q-1, d) arrays of its rows' columns and labels.  F frames decode as one
stack in the check node's layout, q-major with frames innermost:
(columns * q, F) posteriors, row c * q + a holding column c's entry a, and
per layer (q, d, rows, F) check messages.  A layer update gathers a chunk
of rows through one (q, d, rows) index that applies the edge labels'
permutation, runs the check node on the chunk's (q, d, rows * F) lanes and
scatters through the same index, transposing nothing; check messages stay
in the permuted, zero-sum domain.  Chunks keep the check-node workspace at
1 MB; a frame leaves the stack once its syndrome is zero.  The check node
combines the min-max kernel C(a) = min over b+c=a of max(A(b), B(c))
forward and backward.  Min and max select values without rounding, so
each frame gets the same floats as when decoded alone, one row at a time.
With a (b_q, b_f) quantizer every check-node input and output, and every
posterior scattered, is k * 2^-b_f for an integer 0 <= k < 2^b_q: check
messages are stored as uint8 (b_q <= 8) or uint16 codes k, the check node
runs exactly on them, and the posterior update adds, normalizes and
saturates them as integers.  The channel's reliabilities are built per
symbol by doubling a table over its m bits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .construct import Layers, ParityCheck
from .gf import GF2m

LAYER_I = "layer1"

#: reliability assigned to non-transmitted symbols by the noiseless channel
HARD_PENALTY = 1e6

#: float64 entries of the check-node workspace (1 MB); a layer update takes
#: as many (row, frame) lanes at a time as fit 2 q^2 entries of the check
#: node's dtype each, laid out q-major as the check messages are: as float64,
#: 1,024 at q=8, 16 at q=64 (16 rows of one frame, or one row of 16 frames)
#: and one at q=256; as uint8 codes, 128 at q=64 (a 63-row layer), 8 at q=256
WORKSPACE = 1 << 17

#: bytes of decoder state (posteriors, check messages) in one Monte-Carlo
#: batch, counted as float64 entries: 390 frames of the 8-ary (42, 21) code,
#: one at q=64.  Quantized check messages take 1 or 2 bytes an entry, but
#: they are still counted as 8, so batches, and the frames each holds, stay
#: those of float64 messages.
BATCH_BYTES = 1 << 22


@dataclass(frozen=True)
class DecoderConfig:
    max_iter: int = 10
    quant: tuple[int, int] | None = None  # (b_q, b_f)
    rng_seed: int = 0
    trace: bool = False

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be non-negative, got {self.rng_seed}")
        if self.quant is not None:
            b_q, b_f = self.quant
            if not 1 <= b_q <= 16:
                raise ValueError(f"quantization requires 1 <= b_q <= 16 bits, got b_q = {b_q}")
            if not 0 <= b_f < b_q:
                raise ValueError(f"quantization requires 0 <= b_f < b_q, got ({b_q}, {b_f})")


@dataclass
class DecodeResult:
    symbols: np.ndarray
    iterations: int
    syndrome_zero: bool
    trace: list[np.ndarray] = field(default_factory=list, repr=False)


def normalize(vec: np.ndarray, out: np.ndarray | None = None, axis: int = -1) -> np.ndarray:
    """Shift each message (along `axis`) so that its minimum entry is 0; the
    result goes to `out` if given (which may be `vec`)."""
    return np.subtract(vec, vec.min(axis=axis, keepdims=True), out=out)


def build_layer_schedule(h: ParityCheck, partition: str = LAYER_I) -> Layers:
    """H's layers themselves, run top to bottom: one (cols, labels) pair
    per CPM block row (q-1 rows each); LAYER_I is the only partition.

    A CPM block row's rows share one degree and touch each column at most
    once; that degree must be at least 2 (a check node needs two edges).
    """
    if partition != LAYER_I:
        raise ValueError(f"unknown partition {partition!r}")
    _check_row_degrees(h.layers)
    return h.layers


def _check_row_degrees(layers: Layers) -> None:
    """Raise ValueError unless every layer's check degree is at least 2."""
    lo = 0
    for cols, _ in layers:
        rows, d = cols.shape
        if d < 2:
            raise ValueError(f"rows {lo}..{lo + rows - 1} have check degree {d}; need >= 2")
        lo += rows


def _noise_variance(sigma, m: int, b_f: int = 0) -> np.ndarray:
    """sigma^2 of each noise std, each float squared on its own (np.square
    rounds some last bits differently).  Raises ValueError unless sigma is
    positive, sigma^2 is finite and so is the largest reliability decoding
    forms: the sum of m |LLR|s, times 2^b_f when quantized.  It overflows
    only for sigma < 1e-150, where y = +-1 exactly and each |LLR| is
    2/sigma^2; it is summed in the channel's cost-table order."""
    sigma = np.asarray(sigma, dtype=float)
    try:
        var = np.reshape([s**2 for s in sigma.ravel().tolist()], sigma.shape)
    except OverflowError:
        var = np.full(sigma.shape, np.inf)
    with np.errstate(divide="ignore", over="ignore"):
        peak = np.repeat((2.0 / var)[..., None], m, axis=-1).sum(axis=-1) * 2.0**b_f
        if not ((sigma > 0) & np.isfinite(var) & np.isfinite(peak)).all():
            raise ValueError(f"noise std must be positive with {m}*2/sigma^2 finite, got {sigma}")
    return var


def _join_costs(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Cost table of the bits of `lo` below those of `hi`: entry h * len(lo)
    + l (last axis) is lo[l] + hi[h]."""
    return (hi[..., :, None] + lo[..., None, :]).reshape(lo.shape[:-1] + (-1,))


def channel_reliability(tx_symbols, sigma, fld: GF2m, rng) -> np.ndarray:
    """BPSK-modulate each symbol's m bits, add AWGN, build reliabilities.

    L_v(a) = sum over bits of |LLR_i| where bit i of a disagrees with the
    hard decision, so the hard-decision symbol scores exactly 0.
    Returns one row per symbol; the noise is drawn symbol by symbol, bit 0
    first.  Given a sequence of F noise stds and one generator for each,
    returns the (F, symbols, q) stack of F frames of the same symbols,
    frame f drawing its noise from rng[f].  A std whose m*2/sigma^2 is not
    finite raises ValueError.

    Each bit's two costs (0 where a's bit agrees with the hard decision,
    |LLR_i| where not) are joined into the q-entry table by doubling, in
    the order numpy's last-axis sum adds m terms: left to right for m < 8,
    ((0+1)+(2+3))+((4+5)+(6+7)) for m = 8.  Adding an exact 0 changes no
    sum, so each entry is the float that summing its m terms gives.
    """
    sigma = np.asarray(sigma, dtype=float)
    var = _noise_variance(sigma, fld.m)
    stacked = sigma.ndim == 1
    shifts = np.arange(fld.m)
    tx = np.asarray(tx_symbols, dtype=int)
    bits = (tx[:, None] >> shifts) & 1
    noise = np.stack([r.standard_normal(bits.shape) for r in (rng if stacked else [rng])])
    sigma, var = sigma.reshape(-1, 1, 1), var.reshape(-1, 1, 1)
    y = (1.0 - 2.0 * bits) + sigma * noise
    mag = np.abs(2.0 * y / var)
    # costs[..., i, b]: |LLR_i| if b differs from the hard decision's bit i, else 0
    costs = mag[..., None] * (np.arange(2) != (y < 0)[..., None])
    tables = [costs[..., i, :] for i in range(fld.m)]
    while len(tables) > 1:
        if fld.m == 8:
            tables = [_join_costs(lo, hi) for lo, hi in zip(tables[::2], tables[1::2])]
        else:
            tables[:2] = [_join_costs(*tables[:2])]
    return tables[0] if stacked else tables[0][0]


def hard_channel(tx_symbols, fld: GF2m) -> np.ndarray:
    """Noiseless limit: transmitted symbol gets 0, every other symbol HARD_PENALTY."""
    tx = np.asarray(tx_symbols, dtype=int)
    out = np.full((len(tx), fld.q), HARD_PENALTY)
    out[np.arange(len(tx)), tx] = 0.0
    return out


@functools.cache
def _xor_table(q: int) -> np.ndarray:
    table = np.bitwise_xor.outer(np.arange(q), np.arange(q))
    table.flags.writeable = False
    return table


def _minmax_kernel(a: np.ndarray, b: np.ndarray, ws: np.ndarray, out: np.ndarray) -> np.ndarray:
    """C[x, ...] = min over y of max(a[y, ...], b[x XOR y, ...]) for messages
    of any dtype with their q entries on axis 0 and any stack of them on the
    trailing axes; XOR is GF(2^m) addition.  `ws` is scratch space of at
    least a.nbytes * q bytes; the result goes to `out`.

    One gather of whole runs of trailing entries builds ws[y, x, ...] =
    b[x ^ y, ...]; `a` broadcasts over its x axis.  The min over y halves
    the candidates log2(q) times, each over two contiguous halves, which
    selects the same value as one reduction, in any order."""
    q, n = len(a), a.size * len(a)
    ws = b.take(_xor_table(q), axis=0, out=ws.view(a.dtype)[:n].reshape((q,) + a.shape), mode="clip")
    np.maximum(ws, a[:, None], out=ws)
    while q > 2:
        q //= 2
        np.minimum(ws[:q], ws[q : 2 * q], out=ws[:q])
    return np.minimum(ws[0], ws[1], out=out)


def check_node_min_max(x: np.ndarray, ws: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Min-Max check node update by forward-backward kernel combination.

    `x` holds L check rows as (q, d, L) lanes, message x[:, i, l] at row
    l's edge i; each output out[:, i, l] is the min-max combination of the
    row's inputs other than i, in the permuted domain (zero-sum
    constraint), written into `out` and returned.  Every input message
    must have minimum 0, so every output has minimum exactly 0 too.
    Unsigned integer inputs (quantizer codes) keep their dtype.  A row
    needs d >= 2 edges, which `decode` checks for every layer.  `ws` holds
    at least 2 * L * q^2 entries of x's dtype.  Each kernel step works on
    whole runs of lanes."""
    q, d, lanes = x.shape
    # chain[:, k, 0] combines inputs 0..k, chain[:, k, 1] inputs d-1-k..d-1
    ends = np.stack([x, x[:, ::-1]], axis=2)
    chain = np.empty((q, d - 1, 2, lanes), x.dtype)
    chain[:, 0] = ends[:, 0]
    for k in range(1, d - 1):
        _minmax_kernel(chain[:, k - 1], ends[:, k], ws, chain[:, k])
    fwd, bwd = chain[:, :, 0], chain[:, ::-1, 1]  # bwd[:, i] combines inputs i+1..d-1
    out[:, 0], out[:, d - 1] = bwd[:, 0], fwd[:, d - 2]
    width = max(1, ws.nbytes // (lanes * q * q * x.itemsize))
    for i in range(1, d - 1, width):
        j = min(i + width, d - 1)
        _minmax_kernel(fwd[:, i - 1 : j - 1], bwd[:, i:j], ws, out[:, i:j])
    return out


def message_dtype(quant: tuple[int, int] | None) -> np.dtype:
    """dtype of the stored check messages: float64, or with a (b_q, b_f)
    quantizer the smallest unsigned integer holding the codes k < 2^b_q."""
    return np.dtype(float) if quant is None else np.min_scalar_type(2 ** quant[0] - 1)


def update_layer(post: np.ndarray, cols: np.ndarray, labels: np.ndarray, r_msg: np.ndarray, fld: GF2m,
                 quant: tuple[int, int] | None, ws: np.ndarray) -> None:
    """Update one layer of F frames in place.

    `post` holds the (columns * q, F) posteriors, `cols` and `labels` the
    layer's (rows, d) edge form, and `r_msg` the layer's C-contiguous
    (q, d, rows, F) stored check messages of `message_dtype(quant)`, kept
    in the check node's zero-sum domain.  Each row gathers its posteriors
    through the forward edge-label permutation, subtracts its stored
    messages, normalizes them (the check node's precondition), runs the
    check node, adds the new messages and scatters the result back through
    the same index, which is the backward permutation.  Labels permute the
    q entries, so this equals permuting around the check node alone.  Rows
    of a layer touch disjoint columns, so each chunk of (row, frame) lanes
    that fits `ws` (2 q^2 check-node entries a lane) runs as one check-node
    call: some rows of every frame, or one row of some frames.

    With a (b_q, b_f) quantizer `r_msg` holds the check node's integer
    codes k, standing for messages k * 2^-b_f.  A row subtracts r_msg *
    2^-b_f from its posteriors (as posteriors * 2^b_f - r_msg), normalizes
    and rounds straight to codes: to the nearest integer, ties up,
    saturating at 2^b_q - 1.  The check node's output codes go to r_msg.
    The posterior update s = codes + r_msg runs in a (b_q + 1)-bit integer
    dtype: it subtracts its minimum, saturates at 2^b_q - 1 and scatters
    s * 2^-b_f.  Scaling by a power of 2 is exact, so the scattered floats
    are those of rounding float messages to multiples of 2^-b_f.
    """
    q, (rows, d), frames = fld.q, cols.shape, post.shape[1]
    pairs = max(1, ws.nbytes // (2 * q * q * r_msg.itemsize))
    step = min(rows, max(1, pairs // frames))  # rows per chunk; all frames if step > 1
    if quant is not None:
        top, unit = 2 ** quant[0] - 1, 2.0 ** -quant[1]
    for f in range(0, frames, pairs):
        p, r_f = post[:, f : f + pairs], r_msg[..., f : f + pairs]
        for lo in range(0, rows, step):
            # i[a, j, k]: the post row edge j of row lo + k reads as entry a; C order (2-3x faster)
            i = fld.mul_table.take(fld.inv_table[labels[lo : lo + step].T], axis=1)
            i += cols[lo : lo + step].T * q
            r = r_f[:, :, lo : lo + step]  # all frames' rows lo.., or one row of some frames
            new = np.reshape(r, (q, d, -1), copy=False)  # so a view: the check node writes r
            l_cv = p.take(i, axis=0)  # updated in place to keep float temporaries few
            if quant is None:
                l_cv -= r
                check_node_min_max(normalize(l_cv, out=l_cv, axis=0).reshape(new.shape), ws, new)
                l_cv += r
                v = normalize(l_cv, out=l_cv, axis=0)
            else:
                l_cv /= unit
                l_cv -= r
                normalize(l_cv, out=l_cv, axis=0)
                l_cv += 0.5
                # the values are >= 0.5, so the cast's truncation is the rounding's floor
                codes = np.minimum(l_cv, top, out=l_cv).astype(r.dtype)
                check_node_min_max(codes.reshape(new.shape), ws, new)
                s = normalize(np.add(codes, r, dtype=np.min_scalar_type(2 * top)), axis=0)
                v = np.minimum(s, top, out=s) * unit
            dst, v = (p[:, 0], v[..., 0]) if p.shape[1] == 1 else (p, v)  # 1-D scatters faster
            dst[i] = v


def hard_decision(posteriors) -> np.ndarray:
    """argmin per symbol; ties break toward the smaller element index."""
    return np.asarray(posteriors).argmin(axis=-1)


def syndrome_zero(layers: Layers, fld: GF2m, symbols: np.ndarray):
    """Whether H s = 0 for a (columns,) word, or for each word of an
    (F, columns) stack (a boolean array of F), one of H's `layers` at a time."""
    s = np.asarray(symbols)
    bad = [np.bitwise_xor.reduce(fld.mul_table[labels, s[..., cols]], axis=-1).any(axis=-1)
           for cols, labels in layers]
    return ~np.any(bad, axis=0)


def decode(h: ParityCheck, schedule: Layers, channel, fld: GF2m,
           config: DecoderConfig) -> DecodeResult | list[DecodeResult]:
    """Layered Min-Max decoding, layers processed top to bottom.

    `channel` is one frame's (columns, q) finite messages, giving one
    DecodeResult, or an (F, columns, q) stack, giving a list of F.  After
    each iteration one syndrome check over the stack retires the frames
    that satisfy H; each frame's result equals that of decoding it alone.
    The schedule-driven decoder of nbqc.shuffle checks the inter-layer
    wiring once, before it calls this loop.  A layer of check degree below
    2 raises ValueError.
    """
    single = np.ndim(channel) == 2
    post = np.array(channel, dtype=float, ndmin=3)
    if post.shape[1:] != (h.cols, fld.q) or not len(post) or not np.isfinite(post).all():
        raise ValueError(f"expected {h.cols} channel messages of {fld.q} finite entries, "
                         f"got {post.shape} with {np.count_nonzero(~np.isfinite(post))} not finite")
    _check_row_degrees(schedule)
    q, post = fld.q, normalize(post).reshape(len(post), -1).T.copy()  # (columns * q, F)
    frames = np.arange(post.shape[1])  # the input index of each frame still decoding
    r_msg = [np.zeros((q,) + c.T.shape + (len(frames),), message_dtype(config.quant)) for c, _ in schedule]
    ws = np.empty(WORKSPACE)
    traces: list[list[np.ndarray]] = [[] for _ in frames]
    results: list[DecodeResult] = [None] * len(frames)
    for iterations in range(1, config.max_iter + 1):
        for (cols, labels), r in zip(schedule, r_msg):
            update_layer(post, cols, labels, r, fld, config.quant, ws)
            if config.trace:
                for f, p in zip(frames, post.T.reshape(len(frames), h.cols, q).copy()):
                    traces[f].append(p)
        symbols = hard_decision(post.T.reshape(len(frames), h.cols, q))
        ok = syndrome_zero(schedule, fld, symbols)
        done = ok | (iterations == config.max_iter)
        for i, f in zip(np.flatnonzero(done), frames[done]):
            results[f] = DecodeResult(symbols[i], iterations, bool(ok[i]), traces[f])
        if done.all():
            break
        post, frames, r_msg = post.compress(~done, 1), frames[~done], [r.compress(~done, -1) for r in r_msg]
    return results[0] if single else results


@dataclass(frozen=True)
class SimResultRow:
    snr_db: float
    trials: int
    frame_errors: int
    symbol_errors: int
    fer: float
    ber: float
    avg_iters: float

    CSV_HEADER = "snr_db,trials,frame_errors,symbol_errors,fer,ber,avg_iters"

    def csv(self) -> str:
        return (
            f"{self.snr_db!r},{self.trials},{self.frame_errors},{self.symbol_errors},"
            f"{self.fer!r},{self.ber!r},{self.avg_iters!r}"
        )


def _decode_frames(frames, code=None) -> np.ndarray:
    """Decode the frames (sigma, seed key) of one batch as one stack: a row
    (frame error, symbol errors, bit errors, iterations) per frame.  In a
    pool worker the code and config come from `_init_worker`."""
    h, schedule, fld, config = code or _worker_code
    tx = np.zeros(h.cols, dtype=int)  # all-zero codeword
    sigmas, keys = zip(*frames)
    rngs = [np.random.default_rng(np.random.SeedSequence(config.rng_seed, spawn_key=k)) for k in keys]
    results = decode(h, schedule, channel_reliability(tx, sigmas, fld, rngs), fld, config)
    symbols = np.stack([r.symbols for r in results])
    sym_err = np.count_nonzero(symbols, axis=1)
    bit_err = ((symbols[..., None] >> np.arange(fld.m)) & 1).sum(axis=(1, 2))
    return np.column_stack((sym_err > 0, sym_err, bit_err, [r.iterations for r in results]))


_worker_code = None  # (h, schedule, fld, config) in a pool worker


def _init_worker(*code) -> None:
    global _worker_code
    _worker_code = code


def snr_to_sigma(snr_db: float, rate: float) -> float:
    """Eb/N0 in dB to per-bit AWGN noise std for unit-energy BPSK.  The
    power is a numpy float, so a huge SNR overflows to inf (sigma 0) rather
    than raising."""
    return float(1.0 / np.sqrt(2.0 * rate * np.power(10.0, snr_db / 10.0)))


def run_monte_carlo(h: ParityCheck, schedule: Layers, fld: GF2m, snr_db_list: list[float], trials: int,
                    config: DecoderConfig, workers: int = 1) -> list[SimResultRow]:
    """All-zero-codeword FER/BER sweep; bit-reproducible for a fixed seed
    regardless of worker count or batching.

    Frame t of SNR point si draws its channel from SeedSequence(rng_seed,
    spawn_key=(si, t)).  The sweep's frames, all points mixed, are dealt
    into batches of as many frames as BATCH_BYTES of decoder state holds
    (set by H's nnz * q; at least one), at least one batch per worker and
    at most one worker per batch; a single batch decodes in this process.
    `decode` runs each batch as one stack.
    """
    if not snr_db_list:
        raise ValueError("empty SNR list")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    rate = (h.cols - h.rows) / h.cols
    if rate <= 0:
        raise ValueError(f"H is {h.rows}x{h.cols}, so its design rate {rate:.4g} is not positive")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sigmas = [snr_to_sigma(snr_db, rate) for snr_db in snr_db_list]
    b_f = 0 if config.quant is None else config.quant[1]
    for snr_db, sigma in zip(snr_db_list, sigmas):
        try:
            _noise_variance(sigma, fld.m, b_f)
        except ValueError:
            raise ValueError(
                f"SNR {snr_db} dB at design rate {rate:.4g} gives no positive noise std "
                f"with a finite {fld.m}*2/sigma^2*2^{b_f} (sigma = {sigma})"
            ) from None
    frames = [(sigma, (si, t)) for si, sigma in enumerate(sigmas) for t in range(trials)]
    batch = max(1, BATCH_BYTES // (8 * fld.q * (h.nnz() + h.cols)))
    jobs = min(len(frames), max(workers, -(-len(frames) // batch)))
    batches = [frames[j::jobs] for j in range(jobs)]
    code = (h, schedule, fld, config)
    if min(workers, jobs) > 1:
        import multiprocessing

        with multiprocessing.Pool(min(workers, jobs), _init_worker, code) as pool:
            counts = pool.map(_decode_frames, batches)
    else:
        counts = [_decode_frames(b, code) for b in batches]
    per_frame = np.empty((len(frames), 4), dtype=np.int64)
    for j, c in enumerate(counts):
        per_frame[j::jobs] = c
    totals = per_frame.reshape(len(sigmas), trials, 4).sum(axis=1).tolist()
    bits = trials * h.cols * fld.m
    return [
        SimResultRow(snr_db, trials, fe, se, fe / trials, be / bits, iters / trials)
        for snr_db, (fe, se, be, iters) in zip(snr_db_list, totals)
    ]
