"""Eval paths must not build autograd graphs.

The serving subsystem's latency profiles come from measured eval-mode
forwards, so any code path that silently records the graph during
evaluation both wastes memory and skews the measured service times.
``repro.tensor.graph_nodes_created`` counts every recorded node; these
tests pin the contract: zero delta across evaluation, nonzero during
training forwards.
"""

import numpy as np

from repro import nn
from repro.core import Trainer
from repro.data import DataLoader
from repro.optim import SGD
from repro.serve import InputSpec, measure_latency_profile
from repro.tensor import Tensor, graph_nodes_created, no_grad


def make_model(dim=12, num_classes=3):
    return nn.Sequential(
        nn.Linear(dim, 16), nn.ReLU(), nn.Linear(16, num_classes)
    )


def make_loader(rng, n=64, dim=12, num_classes=3):
    x = rng.standard_normal((n, dim)).astype(np.float32)
    y = rng.integers(0, num_classes, n)
    return DataLoader(x, y, 16)


class TestGraphNodeCounter:
    def test_training_forward_creates_nodes(self, rng):
        model = make_model()
        model.train()
        x = Tensor(rng.standard_normal((8, 12)).astype(np.float32))
        before = graph_nodes_created()
        loss = model(x).sum()
        assert graph_nodes_created() > before
        loss.backward()

    def test_no_grad_forward_creates_no_nodes(self, rng):
        model = make_model()
        model.eval()
        x = Tensor(rng.standard_normal((8, 12)).astype(np.float32))
        with no_grad():
            before = graph_nodes_created()
            model(x)
            assert graph_nodes_created() == before

    def test_trainer_evaluate_creates_no_nodes(self, rng):
        """The audit the serving PR rides on: Trainer.evaluate runs under
        ``no_grad`` + ``Module.eval()`` and records exactly zero graph
        nodes — the whole evaluation, not just the forward call."""
        model = make_model()
        loader = make_loader(rng)
        trainer = Trainer(model, SGD(model.parameters(), lr=0.1))
        trainer.evaluate(loader)  # warm any lazy setup first
        before = graph_nodes_created()
        trainer.evaluate(loader)
        assert graph_nodes_created() == before

    def test_evaluate_restores_training_graph_recording(self, rng):
        model = make_model()
        loader = make_loader(rng)
        trainer = Trainer(model, SGD(model.parameters(), lr=0.1))
        trainer.evaluate(loader)
        x = Tensor(rng.standard_normal((4, 12)).astype(np.float32))
        model.train()
        before = graph_nodes_created()
        model(x).sum().backward()
        assert graph_nodes_created() > before

    def test_latency_measurement_creates_no_nodes(self, rng):
        from repro.models import MLP

        model = MLP(3 * 32 * 32, [16], 4)  # flattens image inputs itself
        before = graph_nodes_created()
        profile = measure_latency_profile(
            model, InputSpec("image", (3, 32, 32)), batch_sizes=(1, 2), repeats=1, warmup=0
        )
        assert graph_nodes_created() == before
        assert len(profile.batch_sizes) == 2
