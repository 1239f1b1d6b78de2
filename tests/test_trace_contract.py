"""The benchmark tracer's contract with the package: perfbench/tracing.py
(frozen, imported here read-only) wraps the functions it names by identity,
and its per-layer attribution reads the conv2d_acc and requantize spans
under each forward span. A rename, or a forward that stops calling those
kernels as module globals once per layer, fails here and not only in a
benchmark run."""

import importlib
import os

import numpy as np
import pytest

import lpyolo.model
import lpyolo.pipeline
from lpyolo.imaging import Image, to_input
from lpyolo.model import ModelConfig, random_init

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture(scope="module")
def tracing():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(PERFBENCH)
        return importlib.import_module("tracing")


def test_forward_spans_one_conv_and_requantize_per_layer(tracing):
    model = random_init(ModelConfig(4, 4), seed=0)
    rng = np.random.default_rng(0)
    x = to_input(Image(32, 32, rng.integers(0, 256, 3 * 32 * 32, dtype=np.uint8).tobytes()))
    forward = lpyolo.model.forward
    tracer = tracing.Tracer()
    # install() looks up every traced name, so a missing one raises here
    restore = tracing.install(tracer)
    try:
        # through the module attribute: install rebinds names inside lpyolo only
        lpyolo.model.forward(model, x)
    finally:
        restore()
    assert lpyolo.model.forward is forward
    assert lpyolo.pipeline.forward is forward

    # span: (id, name, start, end, parent id, frame, thread, count)
    roots = [s for s in tracer.spans if s[1] == "model.forward"]
    assert len(roots) == 1
    children = sorted((s for s in tracer.spans if s[4] == roots[0][0]), key=lambda s: s[2])
    n_layers = len(model.layers)
    assert n_layers == 10
    assert [s[1] for s in children] == ["kernels.conv2d_acc", "kernels.requantize"] * n_layers
