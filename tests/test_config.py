"""Fail-fast SDEAConfig validation."""

import pytest

from repro.core.config import SDEAConfig
from repro.errors import ConstraintError


class TestConfigValidation:
    def test_default_config_is_valid(self):
        SDEAConfig()

    def test_missized_config_dies_at_construction(self):
        with pytest.raises(ConstraintError) as excinfo:
            SDEAConfig(bert_dim=160, bert_heads=3)
        message = str(excinfo.value)
        assert "invalid SDEAConfig" in message
        assert "does not divide" in message

    def test_collects_multiple_violations_at_once(self):
        with pytest.raises(ConstraintError) as excinfo:
            SDEAConfig(embed_dim=0, dropout=1.5, margin=-1.0)
        message = str(excinfo.value)
        assert "embed_dim" in message
        assert "dropout" in message
        assert "margin" in message

    def test_bad_aggregator_rejected(self):
        with pytest.raises(ConstraintError):
            SDEAConfig(relation_aggregator="transformer")

    def test_bad_pooling_rejected(self):
        with pytest.raises(ConstraintError):
            SDEAConfig(pooling="sum")

    def test_numeric_dim_only_checked_when_channel_on(self):
        SDEAConfig(numeric_channel=False, numeric_dim=0)
        with pytest.raises(ConstraintError):
            SDEAConfig(numeric_channel=True, numeric_dim=0)

    def test_entity_dim_matches_the_symbolic_contract(self):
        config = SDEAConfig()
        assert config.entity_dim() == \
            config.relation_hidden + 2 * config.embed_dim
        assert SDEAConfig(use_relation=False).entity_dim() == \
            SDEAConfig().embed_dim
