"""A shard's exception reaches the caller of ``ShardedAcornIndex.search``.

Shards are probed inline, one after another, so there is no partial
answer to fall back to: whatever a shard's ``search`` raises — an
interrupt or a plain error — propagates unchanged and typed.
"""

import pytest

from repro.predicates import TruePredicate
from repro.shard import HashPartitioner, ShardedAcornIndex

from tests.shard.conftest import make_world

N, N_SHARDS, K = 120, 4, 8


class _RaisingShard:
    """A shard whose ``search`` raises; everything else is the real
    shard's."""

    def __init__(self, inner, exc_type):
        self.inner = inner
        self.exc_type = exc_type

    def search(self, *args, **kwargs):
        raise self.exc_type("shard down")

    def __len__(self):
        return len(self.inner)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _index_with_raising_shard(exc_type):
    vectors, table = make_world(n=N, seed=11)
    index = ShardedAcornIndex.build(
        vectors, table, partitioner=HashPartitioner(N_SHARDS),
        variant="flat", seed=11,
    )
    index.shards[1] = _RaisingShard(index.shards[1], exc_type)
    return vectors, index


@pytest.mark.parametrize("exc_type", [KeyboardInterrupt, SystemExit])
def test_base_exception_propagates(exc_type):
    vectors, index = _index_with_raising_shard(exc_type)
    with pytest.raises(exc_type):
        index.search(vectors[0], TruePredicate(), K, ef_search=N)


def test_plain_exception_propagates():
    class ShardDown(RuntimeError):
        pass

    vectors, index = _index_with_raising_shard(ShardDown)
    with pytest.raises(ShardDown, match="shard down"):
        index.search(vectors[0], TruePredicate(), K, ef_search=N)
