"""Inter-layer VNU message routing: schedules, the index table, and a
Benes switch model.

Class-I codes route between consecutive layers with a single fixed
permutation (static wiring); Class-II codes permute whole CPM column
groups by XOR translations read off an n x n index table, realizable on a
Benes network of 2*log2(rho) - 1 crossbar stages.  The schedule-driven
decoder runs `decode`'s layer update on posteriors that move only through
these permutations and must reproduce the direct decoder bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .construct import CLASS_I, CodeSpec, ParityCheck
from .decode import (
    LAYER_I,
    DecodeResult,
    DecoderConfig,
    LayerSchedule,
    build_layer_schedule,
    decode,
)
from .gf import GF2m


@dataclass(frozen=True)
class VnuPermutation:
    """Bijective source-to-destination map over rho*(q-1) VNU positions."""

    size: int
    map: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.map) != self.size or set(self.map) != set(range(self.size)):
            raise ValueError("map is not a bijection on 0..size-1")

    def apply(self, items: list) -> list:
        out = [None] * self.size
        for src, dst in enumerate(self.map):
            out[dst] = items[src]
        return out

    def compose(self, other: "VnuPermutation") -> "VnuPermutation":
        """self followed by other."""
        return VnuPermutation(self.size, tuple(other.map[d] for d in self.map))

    def cycles(self) -> list[tuple[int, ...]]:
        seen = [False] * self.size
        out = []
        for start in range(self.size):
            if seen[start]:
                continue
            cyc = []
            a = start
            while not seen[a]:
                seen[a] = True
                cyc.append(a)
                a = self.map[a]
            out.append(tuple(cyc))
        return out


def identity_permutation(size: int) -> VnuPermutation:
    return VnuPermutation(size, tuple(range(size)))


def class1_transition(rho: int, q: int, c: int, steps: int = 1) -> VnuPermutation:
    """Class-I inter-layer map, advanced `steps` layers at once:
    VNU (i, j) -> VNU ((i - steps) mod rho, (j - steps*c) mod (q-1))."""
    qm1 = q - 1
    out = []
    for i in range(rho):
        for j in range(qm1):
            out.append(((i - steps) % rho) * qm1 + (j - steps * c) % qm1)
    return VnuPermutation(rho * qm1, tuple(out))


def schedule_class1(rho: int, q: int, c: int) -> VnuPermutation:
    """Single-layer-step Class-I routing; identical for every layer pair."""
    return class1_transition(rho, q, c, steps=1)


def class1_static_wiring(rho: int, q: int, c: int) -> list[tuple[int, int]]:
    """Fixed source -> destination wire list (equals the schedule's map)."""
    perm = schedule_class1(rho, q, c)
    return list(enumerate(perm.map))


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


def class2_transition(rho: int, q: int, n: int, src_row: int, dst_row: int) -> VnuPermutation:
    """Class-II routing between two layers (base rows src_row -> dst_row).

    Each group of n column blocks is permuted by the XOR translation that
    takes the index-table row of the source layer to that of the
    destination layer; intra-block positions are untouched.  Row indices
    are taken mod n.
    """
    qm1 = q - 1
    index = build_index_matrix(n)
    out = [0] * (rho * qm1)
    for i in range(rho):
        src_g = int(index[src_row % n, i % n]) + n * (i // n)
        dst_g = int(index[dst_row % n, i % n]) + n * (i // n)
        if src_g >= rho or dst_g >= rho:
            raise ValueError(f"group index out of range for rho={rho} (needs n | rho)")
        for j in range(qm1):
            out[src_g * qm1 + j] = dst_g * qm1 + j
    return VnuPermutation(rho * qm1, tuple(out))


def schedule_class2(rho: int, q: int, n: int, v: int) -> VnuPermutation:
    """Routing applied at the beginning of layer v (v >= 1): layer v-1 -> v."""
    if v < 1:
        raise ValueError(f"layer index v must be >= 1, got {v}")
    return class2_transition(rho, q, n, v - 1, v)


# ---------------------------------------------------------------------------
# Benes network
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenesSettings:
    """Recursive switch settings: a leaf crossbar or (in, out, upper, lower)."""

    width: int
    cross: bool | None = None
    in_bits: tuple[bool, ...] | None = None
    out_bits: tuple[bool, ...] | None = None
    upper: "BenesSettings | None" = None
    lower: "BenesSettings | None" = None

    def num_switches(self) -> int:
        if self.width == 2:
            return 1
        return self.width + self.upper.num_switches() + self.lower.num_switches()


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

    @property
    def control_bits(self) -> int:
        return self.num_switches

    def route(self, perm) -> BenesSettings:
        """Switch settings realizing output[perm[a]] = input[a].

        Deterministic looping decomposition: each loop starts at the
        lowest unassigned terminal and takes the upper subnetwork first.
        """
        perm = list(perm.map) if isinstance(perm, VnuPermutation) else list(perm)
        if len(perm) != self.width or set(perm) != set(range(self.width)):
            raise ValueError("permutation is not a bijection of the network width")
        settings = _route(perm)
        if simulate(settings, list(range(self.width))) != _dest_order(perm):
            raise AssertionError("routed settings do not realize the permutation")
        return settings


def _dest_order(perm: list[int]) -> list[int]:
    out = [0] * len(perm)
    for src, dst in enumerate(perm):
        out[dst] = src
    return out


def _route(perm: list[int]) -> BenesSettings:
    w = len(perm)
    if w == 2:
        return BenesSettings(width=2, cross=perm[0] == 1)
    inv = _dest_order(perm)
    subnet = [-1] * w  # input-terminal subnetwork choice (0 = upper)
    out_subnet = [-1] * w
    for start in range(w):
        if subnet[start] != -1:
            continue
        a, s = start, 0  # upper preference for the loop seed
        while subnet[a] == -1:
            subnet[a] = s
            b = perm[a]
            out_subnet[b] = s
            out_subnet[b ^ 1] = 1 - s
            aa = inv[b ^ 1]  # source feeding the partnered output
            subnet[aa] = 1 - s
            a = aa ^ 1
    in_bits = tuple(subnet[2 * k] == 1 for k in range(w // 2))
    out_bits = tuple(out_subnet[2 * k] == 1 for k in range(w // 2))
    perm_u = [0] * (w // 2)
    perm_l = [0] * (w // 2)
    for a in range(w):
        sub = perm_u if subnet[a] == 0 else perm_l
        sub[a >> 1] = perm[a] >> 1
    return BenesSettings(
        width=w,
        in_bits=in_bits,
        out_bits=out_bits,
        upper=_route(perm_u),
        lower=_route(perm_l),
    )


def simulate(settings: BenesSettings, inputs: list) -> list:
    """Drive tokens through the configured switches."""
    w = settings.width
    if len(inputs) != w:
        raise ValueError("input width mismatch")
    if w == 2:
        return [inputs[1], inputs[0]] if settings.cross else list(inputs)
    upper_in, lower_in = [], []
    for k in range(w // 2):
        a, b = inputs[2 * k], inputs[2 * k + 1]
        if settings.in_bits[k]:
            a, b = b, a
        upper_in.append(a)
        lower_in.append(b)
    upper_out = simulate(settings.upper, upper_in)
    lower_out = simulate(settings.lower, lower_in)
    out = []
    for k in range(w // 2):
        a, b = upper_out[k], lower_out[k]
        if settings.out_bits[k]:
            a, b = b, a
        out.extend((a, b))
    return out


def benes_route(perm) -> BenesSettings:
    width = perm.size if isinstance(perm, VnuPermutation) else len(perm)
    return BenesNetwork(width).route(perm)


def unified_class1_via_benes(rho: int, q: int, c: int) -> dict:
    """Route the Class-I group-level cyclic shift i -> (i-1) mod rho through
    a Benes network, padding to the next power of two with identity
    terminals when rho is not a power of two."""
    width = 1 << max(1, (rho - 1).bit_length())
    group_map = [(i - 1) % rho for i in range(rho)] + list(range(rho, width))
    net = BenesNetwork(width)
    settings = net.route(group_map)
    unpadded = BenesNetwork(rho).num_switches if rho & (rho - 1) == 0 else None
    return {
        "width": width,
        "padded": width != rho,
        "settings": settings,
        "stages": net.num_stages,
        "switches": net.num_switches,
        "unpadded_switches": unpadded,
        "control_bits": net.control_bits,
    }


# ---------------------------------------------------------------------------
# Schedule generation and routing reports
# ---------------------------------------------------------------------------


def layer_transitions(spec: CodeSpec, wrap: bool = True) -> list[tuple[int, int]]:
    """Consecutive (source layer, destination layer) base-row pairs of one
    full LAYER_I iteration, including the wrap back to layer 0."""
    pairs = [(t, t + 1) for t in range(spec.gamma - 1)]
    if wrap:
        pairs.append((spec.gamma - 1, 0))
    return pairs


def transition_permutation(spec: CodeSpec, src_row: int, dst_row: int) -> VnuPermutation:
    q = spec.q
    if spec.code_class == CLASS_I:
        return class1_transition(spec.rho, q, spec.c, steps=dst_row - src_row)
    return class2_transition(spec.rho, q, spec.n, src_row, dst_row)


@dataclass
class TransitionReport:
    src_layer: int
    dst_layer: int
    permutation: VnuPermutation
    group_map: tuple[int, ...] | None  # Class-II block-level component
    stages: int
    switches: int
    control_bits: int
    realized: bool


@dataclass
class RoutingReport:
    code_class: int
    partition: str
    transitions: list[TransitionReport] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def total_control_bits(self) -> int:
        return sum(t.control_bits for t in self.transitions)

    def render(self) -> str:
        lines = []
        for t in self.transitions:
            cyc = " ".join(
                "(" + " ".join(map(str, c)) + ")" for c in t.permutation.cycles() if len(c) > 1
            )
            lines.append(
                f"layer {t.src_layer}->{t.dst_layer}: stages={t.stages} "
                f"switches={t.switches} control_bits={t.control_bits} "
                f"realized={'yes' if t.realized else 'NO'} cycles={cyc or '(identity)'}"
            )
        lines.append(f"total control bits: {self.total_control_bits}")
        lines.extend(f"note: {n}" for n in self.notes)
        return "\n".join(lines)


def route_schedule(spec: CodeSpec, partition: str = LAYER_I) -> RoutingReport:
    """Generate every inter-layer permutation of one iteration and route it
    through the class-appropriate network model.

    Class-I maps ride on fixed wires (zero control bits); the Class-II
    group-level component is routed through a Benes network and verified
    by token simulation.
    """
    report = RoutingReport(spec.code_class, partition)
    qm1 = spec.q - 1
    if partition == LAYER_I:
        pairs = layer_transitions(spec)
    else:
        total_rows = spec.gamma * qm1
        pairs_flat = [(r, (r + 1) % total_rows) for r in range(total_rows)]
        pairs = pairs_flat
    for src, dst in pairs:
        if partition == LAYER_I:
            perm = transition_permutation(spec, src, dst)
        else:
            perm = _single_row_transition(spec, src, dst)
        if spec.code_class == CLASS_I:
            report.transitions.append(
                TransitionReport(src, dst, perm, None, 0, 0, 0, realized=True)
            )
        else:
            group_map = tuple(perm.map[g * qm1] // qm1 for g in range(spec.rho))
            net = BenesNetwork(spec.rho)
            settings = net.route(list(group_map))
            realized = simulate(settings, list(range(spec.rho))) == _dest_order(list(group_map))
            report.transitions.append(
                TransitionReport(
                    src,
                    dst,
                    perm,
                    group_map,
                    net.num_stages,
                    net.num_switches,
                    net.control_bits,
                    realized,
                )
            )
    if spec.code_class == CLASS_I:
        report.notes.append("fixed interconnections; no switches or control bits required")
    return report


def _single_row_transition(spec: CodeSpec, src: int, dst: int) -> VnuPermutation:
    """LAYER_II transition between consecutive single H rows."""
    qm1 = spec.q - 1
    src_base, src_off = src // qm1, src % qm1
    dst_base, dst_off = dst // qm1, dst % qm1
    delta_off = (dst_off - src_off) % qm1
    if spec.code_class == CLASS_I:
        steps = dst_base - src_base
        out = []
        for i in range(spec.rho):
            for j in range(qm1):
                out.append(
                    ((i - steps) % spec.rho) * qm1 + (j - steps * spec.c - delta_off) % qm1
                )
        return VnuPermutation(spec.rho * qm1, tuple(out))
    group = class2_transition(spec.rho, spec.q, spec.n, src_base, dst_base)
    out = [0] * (spec.rho * qm1)
    for g in range(spec.rho):
        dst_g = group.map[g * qm1] // qm1
        for j in range(qm1):
            out[g * qm1 + j] = dst_g * qm1 + (j - delta_off) % qm1
    return VnuPermutation(spec.rho * qm1, tuple(out))


# ---------------------------------------------------------------------------
# Schedule-driven decoding (physical message movement)
# ---------------------------------------------------------------------------


def schedule_driven_decode(
    spec: CodeSpec,
    h: ParityCheck,
    channel,
    fld: GF2m,
    config: DecoderConfig,
    use_benes: bool = True,
) -> DecodeResult:
    """Layered decode where posteriors move only through the generated
    inter-layer permutations.

    `decode` runs with a router that keeps the posteriors at physical
    positions and moves them by one gather after each layer.  A fixed
    wiring table is captured from layer 0; before each layer the router
    asserts that the schedule has parked every needed message at a wired
    position.  Class-II moves follow token simulation on the Benes network;
    Class-I moves the static wire list.  Posterior traces are bit-identical
    to the direct-indexed decoder's.
    """
    schedule = build_layer_schedule(h, LAYER_I)
    return decode(h, schedule, channel, fld, config, _Router(spec, schedule, fld.q - 1, use_benes))


class _Router:
    """Wiring check and physical moves of `schedule_driven_decode`."""

    def __init__(self, spec: CodeSpec, schedule: LayerSchedule, qm1: int, use_benes: bool) -> None:
        self.cols = schedule.cols
        # wiring fixed at design time from layer 0's nonzero pattern
        self.wired = np.sort(schedule.cols[0], axis=1)
        self.moves = {}
        for src, dst in layer_transitions(spec):
            perm = np.array(transition_permutation(spec, src, dst).map)
            self.moves[src] = (perm, _gather_index(spec, perm, qm1, use_benes))

    def check(self, t: int, pos: np.ndarray) -> None:
        got = np.sort(pos[self.cols[t]], axis=1)
        same = got.shape == self.wired.shape
        bad = np.flatnonzero((got != self.wired).any(axis=1)) if same else [0]
        if len(bad):
            e = bad[0]
            raise AssertionError(
                f"layer {t} row offset {e}: schedule misalignment, "
                f"wired={self.wired[e].tolist()} got={got[e].tolist()}"
            )

    def move(self, t: int, post: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        perm, gather = self.moves[t]
        return post[gather], perm[pos]


def _gather_index(spec: CodeSpec, perm: np.ndarray, qm1: int, use_benes: bool) -> np.ndarray:
    """Source position of each physical destination: the inverse of the
    static wires for Class-I, the Benes network's token flow on whole CPM
    column groups for Class-II."""
    if spec.code_class == CLASS_I or not use_benes:
        return np.argsort(perm)
    group_map = [int(perm[g * qm1]) // qm1 for g in range(spec.rho)]
    settings = BenesNetwork(spec.rho).route(group_map)
    src = np.array(simulate(settings, list(range(spec.rho))))
    return (src[:, None] * qm1 + np.arange(qm1)).ravel()
