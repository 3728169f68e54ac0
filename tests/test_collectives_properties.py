"""Property-based test: a collective whose every message drops fails closed.

``DistributedTrainer`` is the one owner of the modeled wire: it draws one
``collective_penalty`` over the collective's ring steps per iteration.
For random world sizes, with an allreduce-compatible codec (``2(p-1)``
ring steps) and an allgather one (``p-1``), a certain drop must surface
the typed :class:`~repro.distributed.CollectiveTimeoutError` after the
retry budget — never a hang, never a partial update.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compression import NoCompression, Signum
from repro.data import DataLoader, shard_dataset
from repro.distributed import (
    ClusterSpec,
    CollectiveTimeoutError,
    DistributedTrainer,
    DropSpec,
    FaultSpec,
)
from repro.models import MLP
from repro.optim import SGD
from repro.utils import set_seed


class TestTimeoutUnderExtremeDrops:
    @given(p=st.integers(2, 8), codec=st.sampled_from([NoCompression, Signum]))
    @settings(max_examples=10, deadline=None)
    def test_certain_drop_raises_not_hangs(self, p, codec):
        set_seed(0)
        model = MLP(6, [8], 3)
        trainer = DistributedTrainer(
            model,
            SGD(model.parameters(), lr=0.1),
            ClusterSpec(p),
            compressor=codec(p),
            faults=FaultSpec(seed=0, drop=DropSpec(prob=1.0, max_retries=3)),
        )
        rng = np.random.default_rng(p)
        x = rng.standard_normal((4 * p, 6)).astype(np.float32)
        y = rng.integers(0, 3, 4 * p)
        loaders = [DataLoader(sx, sy, 4) for sx, sy in shard_dataset(x, y, p)]
        before = [q.data.copy() for q in model.parameters()]
        with pytest.raises(CollectiveTimeoutError):
            trainer.train_epoch(loaders)
        for q, b in zip(model.parameters(), before):
            assert np.array_equal(q.data, b)
