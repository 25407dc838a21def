"""Randomized-design evaluation matrix (ROADMAP item 3; PAPERS.md addendum).

Two registered experiments plus the machinery behind
``run <channel> --defense X``:

* ``occupancy`` — characterizes the cache-occupancy channel itself:
  bit-error rate versus sender buffer pressure, on the undefended L1.
* ``ext_randomized`` — the design x channel x intensity evaluation
  matrix of the addendum paper ("Systematic Evaluation of Randomized
  Cache Designs against Cache Occupancy"): every simulable defense
  design against Algorithms 1/2 and the occupancy channel, quiet and
  noisy, with an attacker column separating *naive* set agreement
  (modulo indices) from *profiled* congruent sets built within a CEASER
  key epoch.  Committed as ``benchmarks/RANDOMIZED_baseline.json`` and
  rendered in ``docs/DEFENSES.md``.

The headline orderings the baseline locks in:

* the occupancy channel works against **every** design, randomized ones
  included — index randomization permutes where cache pressure lands,
  not how much there is;
* the naive LRU-state channel dies under ``ceaser`` and ``skew`` (no
  set agreement), but a profiled attacker revives it under ``ceaser``
  at low noise intensity — within an epoch the keyed mapping is still a
  fixed function;
* no profiled CEASER-style congruent set exists under ``skew``: a
  line's candidate set differs per way, so the matrix carries naive
  rows only (the design's actual security argument).
"""

from __future__ import annotations

from typing import List

from repro.cache.randomized_index import congruent_addresses
from repro.channels.addresses import ChannelLayout, lines_for_set
from repro.channels.algorithm1 import SharedMemoryLRUChannel
from repro.channels.algorithm2 import NoSharedMemoryLRUChannel
from repro.channels.capacity import bsc_capacity
from repro.channels.evaluation import (
    evaluate_hyper_threaded,
    nominal_rate_bps,
    random_message,
)
from repro.channels.occupancy import (
    CacheOccupancyChannel,
    OccupancyProtocol,
    default_occupancy_config,
    occupancy_layout,
)
from repro.channels.protocol import CovertChannelProtocol, ProtocolConfig
from repro.common.errors import ConfigurationError
from repro.defenses.registry import defended_machine, get_design
from repro.experiments.base import ExperimentResult, register
from repro.faults.suite import standard_fault_suite
from repro.sim.machine import Machine

#: Channels runnable behind ``--defense`` (CLI and service ``run`` op).
DEFENDED_CHANNELS = ("alg1", "alg2", "occupancy")

#: Designs evaluated in the committed ``ext_randomized`` matrix.
MATRIX_DESIGNS = ("none", "ceaser", "skew")

#: Fault intensities of the matrix (0 = the paper's quiet pinned core,
#: 2 = twice the calibrated Figure 4 noise floor).
MATRIX_INTENSITIES = (0.0, 2.0)

#: Algorithm 1/2 protocol timing for matrix cells (~4 samples per bit,
#: matching the robustness sweep so intensities are comparable).
_LRU_CONFIG = dict(ts=4500.0, tr=1125.0)


class _ProfiledLayout(ChannelLayout):
    """Channel layout validated against a keyed cache's real mapping.

    The stock :meth:`ChannelLayout.validate` checks addresses with the
    *modulo* index; a profiled attacker's congruent set is correct under
    the cache's keyed index function instead, so validation consults the
    cache (``index_of``) rather than the geometry.
    """

    def __init__(self, cache, target_set, receiver_lines, sender_line):
        super().__init__(
            config=cache.config,
            target_set=target_set,
            receiver_lines=receiver_lines,
            sender_line=sender_line,
        )
        self._cache = cache

    def validate(self) -> None:
        seen = set()
        for address in self.receiver_lines + [self.sender_line]:
            index = self._cache.index_of(address)
            if index != self.target_set:
                raise ConfigurationError(
                    f"address {address:#x} maps to set {index} under the "
                    f"keyed index, not {self.target_set}"
                )
            key = self.config.line_address(address)
            if key in seen and address != self.sender_line:
                raise ConfigurationError(f"duplicate line {address:#x}")
            seen.add(key)


def _profiled_target_set(machine: Machine, config: ProtocolConfig) -> int:
    """A target set free of the receiver's scrambled chain lines.

    Under a keyed index the protocol's pointer-chase chain (laid out for
    ``chain_set`` by modulo placement) scatters across sets; the
    profiled attacker must pick a target set none of those lines landed
    in, or every chase would rewrite the state being measured.  Set 0 is
    also skipped so the protocol's numeric chain-collision check stays
    meaningful.
    """
    l1 = machine.spec.hierarchy.l1
    chain = lines_for_set(l1, config.chain_set, config.chain_length, tag_base=1 << 14)
    busy = {machine.l1.index_of(address) for address in chain}
    for candidate in range(1, l1.num_sets):
        if candidate not in busy and candidate != config.chain_set:
            return candidate
    raise ConfigurationError("no chain-free target set available")


def _profiled_channel(channel_id: str, machine: Machine, config: ProtocolConfig):
    """Algorithm 1/2 over a congruent set profiled within the epoch."""
    cache = machine.l1
    ways = cache.config.ways
    target = _profiled_target_set(machine, config)
    if channel_id == "alg1":
        lines = congruent_addresses(cache, target, ways + 1, tag_base=1)
        layout = _ProfiledLayout(cache, target, lines, lines[0])
        return SharedMemoryLRUChannel(layout, d=8)
    lines = congruent_addresses(cache, target, ways, tag_base=1)
    next_line = lines[-1] // cache.config.line_size + 1
    sender = congruent_addresses(cache, target, 1, tag_base=next_line)[0]
    layout = _ProfiledLayout(cache, target, lines, sender)
    # d=5 beats the paper's d=4 worked example at this sampling rate
    # (fewer decode-phase self-evictions); both builders use it so the
    # naive and profiled cells differ only in set agreement.
    return NoSharedMemoryLRUChannel(layout, d=5)


def _naive_channel(channel_id: str, machine: Machine):
    """Standard modulo-placement channel (the pre-randomization attacker)."""
    l1 = machine.spec.hierarchy.l1
    if channel_id == "alg1":
        return SharedMemoryLRUChannel.build(l1, target_set=1, d=8)
    return NoSharedMemoryLRUChannel.build(l1, target_set=1, d=5)


def run_defended_channel(  # repro: allow(experiment-registered)
    channel_id: str,
    defense: str = "none",
    intensity: float = 0.0,
    attacker: str = "auto",
    message_bits: int = 0,
    rng: int = 17,
) -> ExperimentResult:
    """Run one channel against one defense design, end to end.

    This is the engine behind ``python -m repro run <channel>
    --defense X`` and the service's defended ``run`` requests, and the
    cell evaluator of the ``ext_randomized`` matrix.

    Args:
        channel_id: One of :data:`DEFENDED_CHANNELS`.
        defense: A simulable design from the defense registry.
        intensity: ``standard_fault_suite`` scale (0 = quiet core).
        attacker: ``"naive"`` (modulo set agreement), ``"profiled"``
            (congruent set under the current key; CEASER only), or
            ``"auto"`` — profiled where a keyed congruent set exists,
            naive otherwise.
        message_bits: Payload length; 0 picks a per-channel default.
        rng: Master seed for machine, keys, and message.
    """
    if channel_id not in DEFENDED_CHANNELS:
        raise ConfigurationError(
            f"unknown channel {channel_id!r}; choose from {DEFENDED_CHANNELS}"
        )
    design = get_design(defense)
    faults = standard_fault_suite(intensity) if intensity > 0 else None
    machine = defended_machine(defense, rng=rng, faults=faults)
    if attacker == "auto":
        attacker = (
            "profiled"
            if channel_id != "occupancy" and design.index_scheme == "keyed"
            else "naive"
        )
    if attacker == "profiled" and design.index_scheme != "keyed":
        raise ConfigurationError(
            "profiled attacker needs a single keyed mapping (ceaser); "
            f"defense {defense!r} has none"
        )
    if channel_id == "occupancy":
        l1 = machine.spec.hierarchy.l1
        channel = CacheOccupancyChannel.build(l1)
        config = default_occupancy_config(l1)
        protocol_cls: type = OccupancyProtocol
        bits = message_bits or 32
    else:
        config = ProtocolConfig(**_LRU_CONFIG)
        if attacker == "profiled":
            channel = _profiled_channel(channel_id, machine, config)
        else:
            channel = _naive_channel(channel_id, machine)
        protocol_cls = CovertChannelProtocol
        bits = message_bits or 48
    message = random_message(bits, rng=rng)
    evaluation = evaluate_hyper_threaded(
        machine,
        channel,
        config,
        message,
        decoder="window",
        protocol_cls=protocol_cls,
    )
    error = round(evaluation.error_rate, 4)
    capacity = round(
        bsc_capacity(min(error, 0.5))
        * nominal_rate_bps(machine.spec, config.ts),
        1,
    )
    result = ExperimentResult(
        experiment_id=f"{channel_id}@{defense}",
        title=f"{channel_id} vs defense {defense!r} ({attacker} attacker)",
        columns=[
            "design", "channel", "attacker", "intensity",
            "error rate", "capacity bound (bps)",
        ],
        paper_expectation=(
            "Section IX / PAPERS.md addendum: set-based channels need "
            "set agreement, which randomized indices remove (until "
            "profiled within an epoch); occupancy needs only pressure."
        ),
    )
    result.rows.append(
        [defense, channel_id, attacker, intensity, error, capacity]
    )
    return result


@register("occupancy")
def run_occupancy(rng: int = 17) -> ExperimentResult:
    """Occupancy-channel characterization: BER vs sender pressure."""
    result = ExperimentResult(
        experiment_id="occupancy",
        title="Cache-occupancy channel: error rate vs sender pressure",
        columns=[
            "sender lines/set", "sender buffer KiB", "error rate",
            "capacity bound (bps)",
        ],
        paper_expectation=(
            "The addendum's occupancy channel needs no set agreement: "
            "error collapses once the sender's working set reaches the "
            "cache's capacity (8 lines/set = 32 KiB = the whole L1), "
            "and stays at chance level for sub-capacity buffers that "
            "the receiver's resident lines can absorb."
        ),
        notes=(
            "Receiver sweeps one line per set and times the full sweep; "
            "decode threshold at 50% buffer misses.  Undefended L1; the "
            "design x channel matrix lives in ext_randomized."
        ),
    )
    machine0 = defended_machine("none", rng=rng)
    l1 = machine0.spec.hierarchy.l1
    message = random_message(32, rng=rng)
    for per_set in (1, 2, 4, 8):
        machine = defended_machine("none", rng=rng)
        layout = occupancy_layout(l1, sender_lines_per_set=per_set)
        channel = CacheOccupancyChannel(layout)
        config = default_occupancy_config(l1)
        evaluation = evaluate_hyper_threaded(
            machine, channel, config, message,
            decoder="window", protocol_cls=OccupancyProtocol,
        )
        error = round(evaluation.error_rate, 4)
        capacity = round(
            bsc_capacity(min(error, 0.5))
            * nominal_rate_bps(machine.spec, config.ts),
            1,
        )
        buffer_kib = per_set * l1.num_sets * l1.line_size // 1024
        result.rows.append([per_set, buffer_kib, error, capacity])
    return result


@register("ext_randomized")
def run_ext_randomized(rng: int = 17) -> ExperimentResult:
    """The design x channel x intensity defense-evaluation matrix."""
    result = ExperimentResult(
        experiment_id="ext_randomized",
        title="Randomized cache designs vs LRU-state and occupancy channels",
        columns=[
            "design", "channel", "attacker", "intensity",
            "error rate", "capacity bound (bps)",
        ],
        paper_expectation=(
            "Addendum Table 4's shape: randomized indices break naive "
            "set-based channels, a profiled attacker revives them under "
            "CEASER within an epoch at low noise, and the occupancy "
            "channel keeps working against every design."
        ),
        notes=(
            "Attacker 'naive' agrees on modulo set indices; 'profiled' "
            "builds a congruent set under the current CEASER key "
            "(congruent_addresses).  No congruent set exists under "
            "skew's per-way hashing, so skew carries naive rows only. "
            "Intensity scales standard_fault_suite; capacity bound is "
            "BSC capacity at the measured error times the nominal rate."
        ),
    )
    for design in MATRIX_DESIGNS:
        scheme = get_design(design).index_scheme
        for channel_id in DEFENDED_CHANNELS:
            attackers: List[str] = ["naive"]
            if channel_id != "occupancy" and scheme == "keyed":
                attackers.append("profiled")
            for attacker in attackers:
                for intensity in MATRIX_INTENSITIES:
                    cell = run_defended_channel(
                        channel_id,
                        defense=design,
                        intensity=intensity,
                        attacker=attacker,
                        rng=rng,
                    )
                    result.rows.append(cell.rows[0])
    return result
