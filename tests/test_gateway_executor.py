"""``ModelExecutor``: the gateway's real ``no_grad`` forwards of a served
model, one class id per request payload."""

from __future__ import annotations

import asyncio

import pytest

from repro.gateway import ModelExecutor
from repro.serve import LatencyProfile, default_registry

NUM_CLASSES = 4  # ModelRegistry.materialize's default head


@pytest.fixture(scope="module")
def served():
    registry = default_registry()
    return {name: registry.materialize(name, "factorized", width=0.125) for name in ("mlp", "vgg11")}


@pytest.fixture
def executor(served, request):
    ex = ModelExecutor(served[request.param], LatencyProfile((1, 8), (0.001, 0.004)))
    yield ex
    ex.close()


def _step(ex: ModelExecutor, payloads: list[int], step: int) -> list:
    return asyncio.run(ex.run_step([], payloads, step))


@pytest.mark.parametrize("executor", ["mlp", "vgg11"], indirect=True)
def test_one_in_range_class_per_payload(executor):
    payloads = [3, 1_000_003, 17, 2**31 - 2, 5]
    out = _step(executor, payloads, 0)
    assert len(out) == len(payloads)
    for result in out:
        assert set(result) == {"class", "step"}
        assert isinstance(result["class"], int) and 0 <= result["class"] < NUM_CLASSES
        assert result["step"] == 0


@pytest.mark.parametrize("executor", ["mlp", "vgg11"], indirect=True)
def test_same_payloads_and_step_same_ids(executor):
    payloads = list(range(100, 108))
    first = _step(executor, payloads, 2)
    assert _step(executor, payloads, 2) == first
    # The inputs are a function of (payloads, step), not of the call count.
    _step(executor, payloads[:3], 0)
    assert _step(executor, payloads, 2) == first


def test_measures_its_own_profile_when_given_none(served):
    ex = ModelExecutor(served["mlp"])
    try:
        assert ex.profile.batch_sizes == (1, 4, 8)
        assert all(t > 0 for t in ex.profile.latency_s)
        # Admission prices a batch step by step from that profile.
        assert ex.estimate([1, 1]) == ex.profile.latency(2)
        assert ex.estimate([1, 3]) == ex.profile.latency(2) + 2 * ex.profile.latency(1)
    finally:
        ex.close()


@pytest.mark.parametrize("name, folded", [("mlp", 0), ("vgg11", 8)])
def test_describe_fields(served, name, folded):
    ex = ModelExecutor(served[name], LatencyProfile((1,), (0.001,)))
    try:
        info = ex.describe()
    finally:
        ex.close()
    assert info == {
        "executor": "model",
        "model": name,
        "variant": "factorized",
        "params": served[name].params,
        "macs": served[name].macs,
        "bn_folded": folded,
        "input_spec": served[name].input_spec.to_dict(),
    }
