"""Table I's tabled set model agrees with a reference CacheSet model.

``repro.experiments.table1`` runs its Monte-Carlo on compiled policy
tables.  The oracle here is the model it replaced: a reference
:class:`~repro.cache.cache_set.CacheSet` with a reference policy, fed
the same per-trial random streams.  Every cell of the table must come
out equal.
"""

import pytest

from repro.cache.cache_set import CacheSet
from repro.common.rng import make_rng, spawn_rng
from repro.experiments.table1 import (
    WAYS,
    _run_sequence,
    _warmup,
    eviction_probability,
)
from repro.replacement import make_policy

TRIALS = 50


class ReferenceSetModel:
    """One 8-way reference set; lines are their own tags."""

    def __init__(self, policy_name):
        self.set = CacheSet(WAYS, make_policy(policy_name, WAYS))

    def access(self, line):
        way = self.set.lookup(line)
        if way is not None:
            self.set.touch(way, is_fill=False)
            return
        victim = self.set.choose_victim()
        self.set.install(victim, tag=line, address=line)
        self.set.touch(victim, is_fill=True)

    def contains(self, line):
        return self.set.lookup(line) is not None


def reference_probability(policy, sequence, condition, iterations, trials, rng):
    master = make_rng(rng)
    evicted = 0
    for _ in range(trials):
        trial_rng = spawn_rng(master, "trial")
        spawn_rng(trial_rng, "policy")
        model = ReferenceSetModel(policy)
        _warmup(model, condition, trial_rng)
        for _ in range(iterations):
            _run_sequence(model, sequence, trial_rng)
        if not model.contains(0):
            evicted += 1
    return evicted / trials


@pytest.mark.parametrize("condition", ["random", "sequential"])
@pytest.mark.parametrize("sequence", [1, 2])
@pytest.mark.parametrize("policy", ["lru", "tree-plru", "bit-plru"])
def test_every_cell_matches_reference_model(policy, sequence, condition):
    for iterations in (1, 2, 3, 8):
        for seed in (1, 23):
            assert eviction_probability(
                policy, sequence, condition, iterations, trials=TRIALS, rng=seed
            ) == reference_probability(
                policy, sequence, condition, iterations, TRIALS, seed
            ), (iterations, seed)


@pytest.mark.parametrize("policy", ["random", "partitioned-plru", "nope"])
def test_policy_without_tables_is_refused_by_name(policy):
    with pytest.raises(ValueError, match="choose from"):
        eviction_probability(policy, 1, "random", 1, trials=1, rng=1)
