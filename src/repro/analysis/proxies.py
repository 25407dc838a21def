"""Invariant-checking proxies for replacement policies and cache sets.

These wrap live simulator objects and re-verify structural invariants
after every state transition, raising
:class:`~repro.common.errors.InvariantViolation` at the exact operation
that corrupted the state:

* true-LRU age stacks stay a permutation of ``0..ways-1``;
* Tree-PLRU node-bit vectors stay well-formed ({0, 1} bits, right
  length) — per domain for the DAWG-style partitioned policy;
* Bit-PLRU MRU bits stay in {0, 1} and never saturate after a touch
  (the hardware reset rule);
* SRRIP RRPVs stay within their M-bit range;
* FIFO's round-robin pointer stays in range;
* victims are in range, and (for non-domain-aware policies) invalid
  ways fill first, matching real controllers;
* PL-cache locked lines are never evicted, and per-set content
  bookkeeping balances (no duplicate resident tags, evictions reported
  exactly when a valid line was displaced).

Proxies are transparent: they hold no randomness and change no
behaviour, so a sanitized run is bit-identical to an unsanitized one —
only slower (one snapshot + check per transition).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.analysis.trace import AccessTrace
from repro.common.errors import InvariantViolation
from repro.replacement.base import ReplacementPolicy
from repro.replacement.bit_plru import BitPLRU
from repro.replacement.fifo import FIFO
from repro.replacement.partitioned import PartitionedPLRU
from repro.replacement.random_policy import RandomPolicy
from repro.replacement.rrip import SRRIP
from repro.replacement.tree_plru import TreePLRU
from repro.replacement.true_lru import TrueLRU

#: A structural problem found by a checker: (invariant id, message,
#: offending way or None).
Problem = Tuple[str, str, Optional[int]]

#: Checker signature: (policy, operation-name) -> problem or None.
PolicyChecker = Callable[[ReplacementPolicy, str], Optional[Problem]]


def _check_true_lru(policy: TrueLRU, op: str) -> Optional[Problem]:
    snapshot = policy.state_snapshot()
    if sorted(snapshot) != list(range(policy.ways)):
        return (
            "true-lru-permutation",
            f"LRU age stack {snapshot!r} is not a permutation of "
            f"0..{policy.ways - 1}",
            None,
        )
    return None


def _check_bits(bits: Sequence[int]) -> Optional[int]:
    """Index of the first non-binary entry, or None."""
    for index, bit in enumerate(bits):
        if bit not in (0, 1):
            return index
    return None


def _check_tree_plru(policy: TreePLRU, op: str) -> Optional[Problem]:
    snapshot = policy.state_snapshot()
    if len(snapshot) != policy.ways:
        return (
            "tree-plru-shape",
            f"Tree-PLRU bit vector has {len(snapshot)} entries for "
            f"{policy.ways} ways",
            None,
        )
    bad = _check_bits(snapshot[1:])
    if bad is not None:
        node = bad + 1
        return (
            "tree-plru-bits",
            f"Tree-PLRU node {node} holds {snapshot[node]!r}, not a bit",
            None,
        )
    return None


def _check_bit_plru(policy: BitPLRU, op: str) -> Optional[Problem]:
    snapshot = policy.state_snapshot()
    if len(snapshot) != policy.ways:
        return (
            "bit-plru-shape",
            f"Bit-PLRU has {len(snapshot)} MRU bits for {policy.ways} ways",
            None,
        )
    bad = _check_bits(snapshot)
    if bad is not None:
        return (
            "bit-plru-bits",
            f"MRU bit of way {bad} holds {snapshot[bad]!r}, not a bit",
            bad,
        )
    if op == "touch" and all(snapshot):
        # Hardware resets all MRU bits when the last zero would vanish
        # (paper Section II-B); all-ones after a touch means that reset
        # was lost, and the victim search would dead-end.
        return (
            "bit-plru-saturation",
            "all MRU bits set after a touch; saturation reset was lost",
            None,
        )
    return None


def _check_srrip(policy: SRRIP, op: str) -> Optional[Problem]:
    snapshot = policy.state_snapshot()
    max_rrpv = (1 << policy.rrpv_bits) - 1
    for way, rrpv in enumerate(snapshot):
        if not isinstance(rrpv, int) or not 0 <= rrpv <= max_rrpv:
            return (
                "srrip-rrpv-range",
                f"RRPV of way {way} is {rrpv!r}, outside 0..{max_rrpv}",
                way,
            )
    return None


def _check_fifo(policy: FIFO, op: str) -> Optional[Problem]:
    (pointer,) = policy.state_snapshot()
    if not isinstance(pointer, int) or not 0 <= pointer < policy.ways:
        return (
            "fifo-pointer-range",
            f"FIFO victim pointer is {pointer!r}, outside "
            f"0..{policy.ways - 1}",
            None,
        )
    return None


def _check_random(policy: RandomPolicy, op: str) -> Optional[Problem]:
    snapshot = policy.state_snapshot()
    if snapshot != ():
        return (
            "random-stateless",
            f"random policy grew state {snapshot!r}; it must stay "
            "stateless",
            None,
        )
    return None


def _check_partitioned(policy: PartitionedPLRU, op: str) -> Optional[Problem]:
    for domain, bits in policy.state_snapshot():
        count = policy.domain_ways.get(domain)
        if count is None:
            return (
                "partitioned-domains",
                f"snapshot names unknown domain {domain}",
                None,
            )
        if len(bits) != count:
            return (
                "tree-plru-shape",
                f"domain {domain} tree has {len(bits)} entries for "
                f"{count} ways",
                None,
            )
        bad = _check_bits(bits[1:])
        if bad is not None:
            return (
                "tree-plru-bits",
                f"domain {domain} tree node {bad + 1} holds "
                f"{bits[bad + 1]!r}, not a bit",
                None,
            )
    return None


#: Structural checkers by policy type; dispatch walks the MRO so
#: subclasses of a known policy inherit its checker.
POLICY_CHECKERS: Dict[Type[ReplacementPolicy], PolicyChecker] = {
    TrueLRU: _check_true_lru,
    TreePLRU: _check_tree_plru,
    BitPLRU: _check_bit_plru,
    SRRIP: _check_srrip,
    FIFO: _check_fifo,
    RandomPolicy: _check_random,
    PartitionedPLRU: _check_partitioned,
}


def checker_for(policy: ReplacementPolicy) -> Optional[PolicyChecker]:
    """The structural checker for a policy instance, if one exists.

    Table-driven policies (``repro.replacement.tables.TabledPolicy``)
    expose snapshots in their base policy's format, so they dispatch to
    the base policy's checker via ``table_base_type``.
    """
    for klass in type(policy).__mro__:
        if klass in POLICY_CHECKERS:
            return POLICY_CHECKERS[klass]
    base_type = getattr(policy, "table_base_type", None)
    if base_type is not None:
        for klass in base_type.__mro__:
            if klass in POLICY_CHECKERS:
                checker = POLICY_CHECKERS[klass]
                if hasattr(base_type, "on_fill"):
                    return checker
                # The tabled wrapper always exposes on_fill; when the
                # base policy does not (LRU family), a fill is really a
                # touch, and the checker must see it as one so rules
                # like Bit-PLRU saturation keep their full strength.
                def adapted(policy, op, _checker=checker):
                    return _checker(policy, "touch" if op == "on_fill" else op)

                return adapted
    return None


class SanitizingPolicy:
    """Transparent invariant-checking wrapper around a policy instance.

    Not a :class:`ReplacementPolicy` subclass on purpose: it implements
    the same interface by delegation (so ``CacheSet`` accepts it), but
    it is plumbing, not a policy — registering it or linting it against
    the policy contract would be a category error.

    Args:
        inner: The wrapped policy.
        set_index: Cache set this policy belongs to, for diagnostics.
        trace: Shared access trace; a fresh private one by default.
        label: Cache-level name prefixed to trace events.
    """

    def __init__(
        self,
        inner: ReplacementPolicy,
        set_index: Optional[int] = None,
        trace: Optional[AccessTrace] = None,
        label: str = "",
    ):
        if isinstance(inner, SanitizingPolicy):
            inner = inner.inner  # never stack proxies
        self.inner = inner
        self.ways = inner.ways
        self._set_index = set_index
        self._trace = trace if trace is not None else AccessTrace()
        self._label = label or type(inner).__name__
        self._checker = checker_for(inner)
        self._where = (
            f"{self._label}[set {set_index}]"
            if set_index is not None
            else self._label
        )
        self._verify("init", None)

    # -- the ReplacementPolicy interface, checked ----------------------

    def touch(self, way: int) -> None:
        self._record(f"touch(way={way})")
        self.inner.touch(way)
        self._verify("touch", way)

    def victim(self, valid: Optional[Sequence[bool]] = None) -> int:
        choice = self.inner.victim(valid)
        self._record(f"victim() -> {choice}")
        self._verify_victim(choice, valid)
        self._verify("victim", choice)
        return choice

    def invalidate(self, way: int) -> None:
        self._record(f"invalidate(way={way})")
        self.inner.invalidate(way)
        self._verify("invalidate", way)

    def reset(self) -> None:
        self._record("reset()")
        self.inner.reset()
        self._verify("reset", None)

    def state_snapshot(self):
        return self.inner.state_snapshot()

    def state_restore(self, snapshot) -> None:
        self._record(f"state_restore({snapshot!r})")
        self.inner.state_restore(snapshot)
        self._verify("restore", None)

    @property
    def state_bits(self) -> int:
        return self.inner.state_bits

    def __getattr__(self, name: str):
        # Only consulted for names the proxy does not define; exposes
        # optional protocol extensions (on_fill, victim_for) exactly
        # when the wrapped policy has them, with checks attached.
        attr = getattr(self.inner, name)
        if name == "on_fill":

            def checked_on_fill(way: int, _fn=attr):
                self._record(f"on_fill(way={way})")
                result = _fn(way)
                self._verify("on_fill", way)
                return result

            return checked_on_fill
        if name == "victim_for":

            def checked_victim_for(
                domain: int,
                valid: Optional[Sequence[bool]] = None,
                _fn=attr,
            ):
                choice = _fn(domain, valid)
                self._record(f"victim_for(domain={domain}) -> {choice}")
                self._verify_victim(choice, valid=None)
                self._verify("victim", choice)
                return choice

            return checked_victim_for
        return attr

    def __repr__(self) -> str:
        return f"SanitizingPolicy({self.inner!r})"

    # -- checking machinery --------------------------------------------

    def _record(self, event: str) -> None:
        self._trace.record(f"{self._where}.{event}")

    def _raise(
        self, invariant: str, message: str, way: Optional[int]
    ) -> None:
        raise InvariantViolation(
            f"{self._where}: {message}",
            invariant=invariant,
            set_index=self._set_index,
            way=way,
            trace=self._trace.tail(),
        )

    def _verify(self, op: str, way: Optional[int]) -> None:
        if self._checker is None:
            return
        problem = self._checker(self.inner, op)
        if problem is not None:
            invariant, message, bad_way = problem
            self._raise(invariant, message, bad_way if bad_way is not None else way)

    def _verify_victim(
        self, choice: int, valid: Optional[Sequence[bool]]
    ) -> None:
        if not isinstance(choice, int) or not 0 <= choice < self.ways:
            self._raise(
                "victim-range",
                f"victim {choice!r} outside 0..{self.ways - 1}",
                choice if isinstance(choice, int) else None,
            )
        # Hardware fills invalid ways first.  Domain-aware policies
        # (victim_for) legitimately confine the search to their own way
        # range, so the global check applies only to plain policies.
        if (
            valid is not None
            and not all(valid)
            and not hasattr(self.inner, "victim_for")
        ):
            expected = next(i for i, v in enumerate(valid) if not v)
            if choice != expected:
                self._raise(
                    "invalid-way-first",
                    f"victim {choice} but way {expected} is invalid and "
                    "must fill first",
                    choice,
                )


def sanitize_cache_set(
    cache_set,
    set_index: Optional[int] = None,
    trace: Optional[AccessTrace] = None,
    label: str = "",
):
    """Wrap one :class:`~repro.cache.cache_set.CacheSet` in checks.

    The set's policy is replaced by a :class:`SanitizingPolicy` and its
    ``install`` method is wrapped to enforce the cache-level invariants
    (lock honoured, content bookkeeping balanced).  Idempotent.
    """
    if trace is None:
        trace = AccessTrace()
    if isinstance(cache_set.policy, SanitizingPolicy):
        return cache_set
    cache_set.policy = SanitizingPolicy(
        cache_set.policy, set_index=set_index, trace=trace, label=label
    )
    where = f"{label or 'cache'}[set {set_index}]"
    original_install = cache_set.install

    def checked_install(way, tag, address, dirty=False):
        line = cache_set.lines[way]
        was_valid = line.valid
        was_locked = line.locked
        old_address = line.address
        if was_valid and was_locked:
            raise InvariantViolation(
                f"{where}: fill evicts a locked line "
                f"(tag={line.tag:#x})",
                invariant="pl-lock-eviction",
                set_index=set_index,
                way=way,
                trace=trace.tail(),
            )
        evicted = original_install(way, tag, address, dirty=dirty)
        expected = old_address if was_valid else None
        if evicted != expected:
            raise InvariantViolation(
                f"{where}: install reported eviction of "
                f"{evicted!r}, expected {expected!r}",
                invariant="eviction-accounting",
                set_index=set_index,
                way=way,
                trace=trace.tail(),
            )
        tags = [l.tag for l in cache_set.lines if l.valid]
        if len(tags) != len(set(tags)):
            raise InvariantViolation(
                f"{where}: duplicate resident tag after install; "
                "lookups are ambiguous",
                invariant="duplicate-tag",
                set_index=set_index,
                way=way,
                trace=trace.tail(),
            )
        trace.record(f"{where}.install(way={way}, tag={tag:#x})")
        return evicted

    cache_set.install = checked_install
    return cache_set


def sanitize_cache(cache, trace: Optional[AccessTrace] = None):
    """Wrap every set of a :class:`SetAssociativeCache`-like object.

    Sets built so far are wrapped now; sets a
    :class:`~repro.cache.cache.LazySets` builds later are wrapped by an
    ``on_build`` hook as they are built, so sanitizing never builds the
    untouched sets.
    """
    if trace is None:
        trace = AccessTrace()
    label = getattr(getattr(cache, "config", None), "name", "") or "cache"

    def wrap(index, cache_set):
        sanitize_cache_set(cache_set, set_index=index, trace=trace, label=label)

    for index, cache_set in cache.sets.built():
        wrap(index, cache_set)
    cache.sets.on_build.append(wrap)
    return cache
