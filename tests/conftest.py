"""Shared fixtures: tiny datasets and SDEA configs sized for unit tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.core import SDEAConfig
from repro.datasets import ViewConfig, WorldConfig, generate_pair
from repro.datasets.translation import Language


@pytest.fixture()
def float64():
    """Run the test with float64 tensors, the reference precision.

    The engine computes in float32.  Tests whose oracle is a float64
    array, a closed form checked to 1e-7 or tighter, or a central
    difference (about 1e-2 relative error at ``eps=1e-6`` in float32)
    use this fixture, as PyTorch's ``gradcheck`` requires double
    precision.
    """
    with nn.default_dtype(np.float64):
        yield


@pytest.fixture(scope="session")
def tiny_pair():
    """A small cross-lingual KG pair (~70 entities/side) for model tests."""
    return generate_pair(
        WorldConfig(n_persons=30, n_places=12, n_clubs=8, n_countries=4,
                    seed=5),
        ViewConfig(side=1, name_style="noisy", seed=6),
        ViewConfig(side=2, language=Language("zz"), seed=7),
        name="tiny",
    )


@pytest.fixture(scope="session")
def tiny_split(tiny_pair):
    return tiny_pair.split(seed=3)


@pytest.fixture()
def tiny_sdea_config():
    """SDEA config small enough for second-scale unit tests."""
    return SDEAConfig(
        bert_dim=32, bert_heads=2, bert_layers=1, bert_ff_dim=64,
        max_seq_len=32, embed_dim=32, relation_hidden=24,
        attr_epochs=2, rel_epochs=3, mlm_epochs=1, vocab_size=500,
        patience=2, seed=1,
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
