"""Tests for the analytic blocking approximation."""


import pytest

from repro.analysis.erlang import (
    erlang_b,
    estimate_link_model,
    predicted_blocking,
)
from repro.topology.builders import build


class TestErlangB:
    def test_known_values(self):
        # Classic table entries.
        assert erlang_b(1.0, 1) == pytest.approx(0.5)
        assert erlang_b(2.0, 2) == pytest.approx(0.4)
        assert erlang_b(10.0, 10) == pytest.approx(0.2146, abs=1e-3)

    def test_zero_load(self):
        assert erlang_b(0.0, 5) == 0.0

    def test_zero_channels_always_blocks(self):
        assert erlang_b(3.0, 0) == 1.0

    def test_monotone_in_channels(self):
        values = [erlang_b(5.0, c) for c in range(1, 12)]
        assert values == sorted(values, reverse=True)

    def test_monotone_in_load(self):
        values = [erlang_b(a, 4) for a in (0.5, 1, 2, 4, 8)]
        assert values == sorted(values)

    def test_validation(self):
        with pytest.raises(ValueError):
            erlang_b(-1, 1)
        with pytest.raises(ValueError):
            erlang_b(1, -1)


class TestLinkModel:
    def test_usage_probabilities_are_probabilities(self):
        net = build("indirect-binary-cube", 32)
        model = estimate_link_model(net, samples=150, seed=0)
        assert model.samples == 150
        assert all(0 < q <= 1 for q in model.usage.values())
        assert model.mean_route_links > 0

    def test_usage_mass_matches_mean_route_size(self):
        net = build("omega", 16)
        model = estimate_link_model(net, samples=100, seed=1)
        assert sum(model.usage.values()) == pytest.approx(model.mean_route_links, rel=1e-9)


class TestPredictedBlocking:
    def test_monotone_in_dilation(self):
        net = build("indirect-binary-cube", 32)
        model = estimate_link_model(net, samples=200, seed=2)
        preds = [
            predicted_blocking(net, offered_erlangs=8.0, dilation=c, model=model)
            for c in (1, 2, 4, 8)
        ]
        assert preds == sorted(preds, reverse=True)
        assert preds[0] > 0.3
        assert preds[-1] < 0.05

    def test_zero_at_huge_dilation(self):
        net = build("omega", 16)
        model = estimate_link_model(net, samples=100, seed=3)
        assert predicted_blocking(net, 4.0, dilation=64, model=model) < 1e-6

    def test_dilation_validated(self):
        net = build("omega", 16)
        with pytest.raises(ValueError):
            predicted_blocking(net, 4.0, dilation=0)
