"""Inter-layer VNU message routing: the moves of one iteration, the index
table, and a Benes switch model.

Every inter-layer move is a block-level group map G plus a rotation s[g]
inside each CPM: position (g, j) of the rho*(q-1) VNU positions moves to
(G[g], (j - s[g]) mod (q-1)), so one iteration's moves are one read-only
(gamma, 2*rho) intp array, row t holding G then s.  A Class-I move that
advances `steps` block rows is a fixed wiring with G[g] = (g - steps) mod
rho and s = steps*c; a Class-II move permutes whole CPM column groups by
the XOR translation read off an n x n index table (s = 0), and its G is
routed on a Benes network of 2*log2(rho) - 1 crossbar stages.  A
network's setting for one move is its LUT content: a (stages, rho/2) bool
array with one control bit per 2x2 switch, checked by driving
np.arange(rho) through it.  A layer is a CPM block row: row r+1 of a CPM
is row r shifted once, so moves within a block row carry no routing
information.  A routing report exists only when every Class-II move
routed (`route_schedule` raises otherwise), which is why every line of it
reads realized=yes.  Moves repeat, so `distinct_moves` finds each distinct
row once; its cycles follow from G's cycles by arithmetic.  Its text is one
`take` from a table of fixed-width tokens, a void item per position (its
digits and the 0-byte slots that marks fill), with the 0 bytes dropped;
the commands write a report as pieces that share each distinct move's
text.  Moves become positions only for `schedule`'s text and for the
schedule-driven decoder, which walks `iteration_moves` and refuses a
schedule unless every layer finds its columns at layer 0's fixed wiring.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .codefile import ascii_text, digit_table
from .construct import CLASS_I, CodeSpec, ParityCheck
from .decode import DecodeResult, DecoderConfig, build_layer_schedule, decode
from .gf import GF2m


def _cycle_min(perm: np.ndarray) -> np.ndarray:
    """Each position's cycle minimum, by pointer doubling."""
    lead, jump = np.arange(perm.size), perm
    # after k passes lead[i] = min of perm^0(i) .. perm^(2^k - 1)(i)
    while not np.array_equal(lead, nxt := np.minimum(lead, lead[jump])):
        lead, jump = nxt, jump[jump]
    return lead


def _cycle_order(perm: np.ndarray) -> tuple[list[int], list[int]]:
    """Every position, cycle by cycle (each from its smallest position,
    following perm, in order of that position), and where each cycle
    starts in that order, then its size."""
    nxt, order, bounds = perm.tolist(), [], []
    todo = [True] * len(nxt)
    for a in range(len(nxt)):
        if todo[a]:
            bounds.append(len(order))
        b = a
        while todo[b]:
            todo[b] = False
            order.append(b)
            b = nxt[b]
    return order, bounds + [len(order)]


def build_index_matrix(n: int) -> np.ndarray:
    """n x n routing index table: index[i, j] = i XOR j.

    Row 0 is the identity; the matrix is symmetric, every row and column
    is a permutation, and complementary pairs map to complements:
    index[i, n-1-j] = n-1 - index[i, j].
    """
    if n < 1 or n & (n - 1):
        raise ValueError(f"table size must be a power of two, got {n}")
    idx = np.arange(n)
    return idx[:, None] ^ idx[None, :]


def group_moves(spec: CodeSpec) -> np.ndarray:
    """One iteration's moves: row t, G then s, moves layer t to layer
    (t+1) mod gamma.  Class-I: G[g] = (g - steps) mod rho and s = steps*c
    mod (q-1), where `steps` is the change of block row.  Class-II: G takes
    the index-table row of the source block row (mod n) to that of the
    destination within each group of n column blocks, s = 0."""
    qm1, g, n = spec.q - 1, np.arange(spec.rho), spec.n
    src = np.arange(spec.gamma)
    dst = (src + 1) % spec.gamma
    if spec.code_class == CLASS_I:
        steps = (dst - src)[:, None]
        groups, shifts = (g - steps) % spec.rho, steps * spec.c % qm1
    else:
        # at[t, g]: the block column that group g's index-table entry names in block row t
        at = build_index_matrix(n)[src[:, None] % n, g % n] + g // n * n
        if at.max() >= spec.rho:
            raise ValueError(f"group index out of range for rho={spec.rho} (needs n | rho)")
        groups, shifts = np.empty_like(at), 0
        groups[src[:, None], at] = at[dst]
    table = np.concatenate([groups, np.broadcast_to(shifts, groups.shape)], axis=1)
    table.flags.writeable = False
    return table


def _positions(rows: np.ndarray, qm1: int) -> np.ndarray:
    """Rows of `group_moves` as read-only rows of positions (see `iteration_moves`)."""
    groups, shifts = np.split(rows[..., None], 2, axis=1)
    perms = (groups * qm1 + (np.arange(qm1) - shifts) % qm1).reshape(len(rows), -1)
    perms.flags.writeable = False
    return perms


def iteration_moves(spec: CodeSpec) -> np.ndarray:
    """`group_moves` as positions: a read-only (gamma, rho*(q-1)) intp
    array, perm[g*(q-1) + j] = G[g]*(q-1) + (j - s[g]) mod (q-1)."""
    return _positions(group_moves(spec), spec.q - 1)


def distinct_moves(moves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of `moves` (read-only, in order of first use) and
    each row's index among them; the rows' bytes key and rebuild them."""
    first: dict[bytes, int] = {}
    index = np.array([first.setdefault(row.tobytes(), len(first)) for row in moves], dtype=np.intp)
    return np.frombuffer(b"".join(first), moves.dtype).reshape(-1, moves.shape[1]), index


# ---------------------------------------------------------------------------
# Benes network
# ---------------------------------------------------------------------------


class BenesNetwork:
    """Rearrangeable switching fabric of 2*log2(w) - 1 stages of 2x2
    crossbars; one control bit per switch per configured permutation."""

    def __init__(self, width: int) -> None:
        if width < 2 or width & (width - 1):
            raise ValueError(f"network width must be a power of two >= 2, got {width}")
        self.width = width

    @property
    def num_stages(self) -> int:
        return 2 * self.width.bit_length() - 3  # 2*log2(w) - 1

    @property
    def num_switches(self) -> int:
        log2w = self.width.bit_length() - 1
        return self.width * log2w - self.width // 2  # w*(log2(w) - 1/2)

    def route(self, perm) -> np.ndarray:
        """Switch settings realizing output[perm[a]] = input[a], as a
        read-only (num_stages, width/2) bool array, True where crossed.

        Deterministic looping decomposition, one depth at a time: each
        loop starts at the lowest unassigned terminal and takes the upper
        sub-network first.  Row s is the input stage at depth s, row -1-s
        its output stage and the middle row the 2x2 leaves; within a row,
        switches go sub-network by sub-network, upper first.
        """
        w, idx = self.width, np.arange(self.width)
        perm = np.asarray(perm)
        p = perm.astype(np.intp)
        if p.shape != (w,) or not np.array_equal(np.sort(p), idx):
            raise ValueError("permutation is not a bijection of the network width")
        bits = np.empty((self.num_stages, w // 2), dtype=bool)
        for s in range(self.num_stages // 2):
            size = w >> s  # of each sub-network at depth s
            inv = np.empty_like(p)
            inv[p] = idx
            # a loop's upper terminals are the cycle of its lowest one under
            # a -> partner of the source feeding a's partnered output; its
            # lower ones, their partners, form a cycle with a higher minimum
            lead = _cycle_min(inv[p ^ 1] ^ 1)
            lower = lead > lead[idx ^ 1]
            bits[s], bits[-1 - s] = lower[0::2], lower[inv[0::2]]
            base = idx - idx % size + lower * (size // 2)
            p[base + idx % size // 2] = base + p % size // 2
        bits[self.num_stages // 2] = p[0::2] & 1
        if not np.array_equal(apply(bits, idx)[perm], idx):
            raise AssertionError("routed settings do not realize the permutation")
        bits.flags.writeable = False
        return bits


def apply(bits: np.ndarray, x) -> np.ndarray:
    """Drive x through the switches set by `bits` (as from
    `BenesNetwork.route`): an input stage swaps its crossed pairs, then
    sends each sub-network's even terminals to its upper half and odd ones
    to its lower half; an output stage interleaves the halves back, then
    swaps its crossed pairs."""
    stages, w = bits.shape[0], 2 * bits.shape[1]
    x = np.array(x)
    for s, row in enumerate(bits):
        half = w >> min(s, stages - 1 - s) + 1
        if s > stages // 2:
            x = x.reshape(-1, 2, half).transpose(0, 2, 1).ravel()
        pairs = x.reshape(-1, 2)
        pairs[row] = pairs[row, ::-1]
        if s < stages // 2:
            x = x.reshape(-1, half, 2).transpose(0, 2, 1).ravel()
    return x


# ---------------------------------------------------------------------------
# Routing reports
# ---------------------------------------------------------------------------


def schedule_pieces(moves: np.ndarray, qm1: int) -> list[str]:
    """`nbqc schedule`'s text of `group_moves` rows in pieces: per layer, its move's `src -> dst` map."""
    (distinct, index), size = distinct_moves(moves), moves.shape[1] // 2 * qm1
    src, dst = digit_table(size, b"", b" -> "), digit_table(size, b"", b", ")
    pairs, maps, n = np.empty(size, [("src", src.dtype), ("dst", dst.dtype)]), [], len(index)
    pairs["src"] = src
    for perm in _positions(distinct, qm1):
        pairs["dst"] = dst.take(perm)
        pairs.view(np.uint8)[-2:] = 0  # no ", " after the last pair
        maps.append(ascii_text(pairs))
    heads = [f"transition layer {t} to layer {(t + 1) % n}: " for t in range(n)]
    return [x for t, k in enumerate(index.tolist()) for x in (heads[t], maps[k], "\n")][:-1]


def render_schedule(moves: np.ndarray, qm1: int) -> str:
    """`schedule_pieces` joined: the text `nbqc schedule` prints."""
    return "".join(schedule_pieces(moves, qm1))


def _move_cycles(row: np.ndarray, qm1: int) -> tuple[np.ndarray, np.ndarray]:
    """The moved positions of one move (G then s, a row of `group_moves`)
    in `_cycle_order`'s order, and where each cycle starts among them, from
    G's cycles by arithmetic.  A G-cycle g_0 .. g_(L-1) from its smallest
    group, whose rotations sum to S_k over its first k groups and to R
    (mod q-1) over all, splits into c = gcd(R, q-1) position cycles of
    P = (q-1)/c rounds of L steps, one from each (g_0, r) with r < c.
    Step k of round p of the cycle from (g_0, r) is group g_k at offset
    r - S_k - p*R (mod q-1).  G-cycles of one length L in a row fill one
    (cycles, q-1, L) block of the text, computed rounds innermost in int16
    (q-1 < 256)."""
    rho = len(row) // 2
    order, bounds = map(np.array, _cycle_order(row[:rho]))
    starts, lengths, s = bounds[:-1], bounds[1:] - bounds[:-1], row[rho:][order]
    sums = s.cumsum() - s
    sums = ((sums - sums[starts].repeat(lengths)) % qm1).astype(np.int16)  # S_k
    turn = np.add.reduceat(s, starts) % qm1  # R
    moved = (lengths + turn > 1).nonzero()[0]  # L + R = 1: a fixed point, one group
    starts, lengths, turn = starts[moved], lengths[moved], turn[moved]
    pos, at = np.empty((rho - len(bounds) + 1 + len(moved)) * qm1, np.intp), 0  # all but the fixed groups
    if not len(pos):
        return pos, pos
    kinds = np.bincount(turn, minlength=qm1) > 0  # the distinct R, and each G-cycle's among them
    turns, kind = kinds.nonzero()[0], kinds.cumsum()[turn] - 1
    span = np.gcd(turns, qm1)[:, None]  # c
    i = np.arange(qm1)  # round i = r*P + p, offset r - p*R = r - i*R at g_0 (P*R = 0 mod q-1)
    rounds = ((i // (qm1 // span) - turns[:, None] * i) % qm1).astype(np.int16)  # per distinct R
    edges = [0, *((lengths[1:] != lengths[:-1]).nonzero()[0] + 1).tolist(), len(moved)]
    for a, b in zip(edges, edges[1:]):  # G-cycles a .. b-1, of one length L
        k = starts[a:b, None] + np.arange(lengths[a])  # their steps in order
        off = rounds[kind[a:b], None] - sums[k][..., None]  # (cycles, L, q-1)
        off += (off < 0) * np.int16(qm1)
        text = pos[at : at + off.size].reshape(b - a, qm1, -1).transpose(0, 2, 1)
        np.add((order[k] * qm1)[..., None], off, out=text)
        at += off.size
    steps = (qm1 // span[kind, 0] * lengths).repeat(span[kind, 0])  # c position cycles of L*P steps each
    return pos, steps.cumsum() - steps


@dataclass(frozen=True)
class RoutingReport:
    moves: np.ndarray  # as from `group_moves`
    qm1: int  # positions per group, q-1
    network: BenesNetwork | None  # every Class-II move routes on it; None: fixed wires

    @functools.cached_property
    def distinct(self) -> tuple[np.ndarray, np.ndarray]:
        return distinct_moves(self.moves)

    @property
    def total_control_bits(self) -> int:
        return len(self.moves) * self.network.num_switches if self.network else 0

    def pieces(self) -> list[str]:
        """The report's text in pieces; each distinct move's cycles are one piece."""
        net, (distinct, index) = self.network, self.distinct
        stages, switches = (net.num_stages, net.num_switches) if net else (0, 0)
        counts = f"stages={stages} switches={switches} control_bits={switches}"
        # a token per position: an empty "(" slot, its digits, an empty ")" slot, a space
        tokens, cycles = digit_table(distinct.shape[1] // 2 * self.qm1, b"\0", b"\0 "), []
        for row in distinct:
            pos, heads = _move_cycles(row, self.qm1)
            text = tokens.take(pos)
            marks = text.view(np.uint8).reshape(len(pos), tokens.itemsize)
            marks[heads, 0], marks[heads - 1, -2] = ord("("), ord(")")  # heads[0] - 1: the last
            marks[-1:, -1] = 0  # no space after the last
            cycles.append(ascii_text(text) or "(identity)")
        pieces, tail = [], f": {counts} realized=yes cycles="
        for t, k in enumerate(index.tolist()):
            pieces += (f"layer {t}->{(t + 1) % len(index)}", tail, cycles[k], "\n")
        pieces.append(f"total control bits: {self.total_control_bits}")
        if net is None:
            pieces.append("\nnote: fixed interconnections; no switches or control bits required")
        return pieces

    def render(self) -> str:
        """`pieces` joined: the text `nbqc route` prints."""
        return "".join(self.pieces())


def route_schedule(spec: CodeSpec) -> RoutingReport:
    """Route one iteration's moves: Class-I moves ride on fixed wires (zero
    control bits); each distinct Class-II group map G is routed once on one
    Benes network, whose `route` raises unless its settings realize G."""
    moves = group_moves(spec)
    net = None if spec.code_class == CLASS_I else BenesNetwork(spec.rho)
    report = RoutingReport(moves, spec.q - 1, net)
    for row in report.distinct[0] if net else ():
        net.route(row[: spec.rho])  # its group map G
    return report


# ---------------------------------------------------------------------------
# Schedule-driven decoding (physical message movement)
# ---------------------------------------------------------------------------


def schedule_driven_decode(spec: CodeSpec, h: ParityCheck, channel, fld: GF2m,
                           config: DecoderConfig) -> DecodeResult | list[DecodeResult]:
    """Layered decode of a schedule whose inter-layer moves must deliver
    every layer's posteriors to fixed check-node wiring; one frame or an
    (F, columns, q) stack, as in `decode`.

    Before any layer is decoded, `route_schedule` routes the moves
    (Class-II group maps on the Benes network, whose switch bits are
    checked against each map), and one walk over `iteration_moves` tracks
    the physical position of every column.  Each layer must find its
    columns at the wiring fixed from layer 0's nonzero pattern, or the
    schedule is refused.  Positions depend only on the schedule and one
    iteration's moves compose to the identity, so the posteriors are then
    those of the direct decoder, bit for bit.
    """
    schedule = build_layer_schedule(h)
    wired, pos = np.sort(schedule[0][0], axis=1), np.arange(h.cols)
    route_schedule(spec)
    for t, ((cols, _), move) in enumerate(zip(schedule, iteration_moves(spec))):
        got = np.sort(pos[cols], axis=1)
        same = got.shape == wired.shape
        bad = np.flatnonzero((got != wired).any(axis=1)) if same else [0]
        if len(bad):
            e = bad[0]
            raise AssertionError(f"layer {t} row offset {e}: schedule misalignment, "
                                 f"wired={wired[e].tolist()} got={got[e].tolist()}")
        pos = move[pos]
    return decode(h, schedule, channel, fld, config)
