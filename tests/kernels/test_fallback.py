"""Auto-detection fallback must be loud (once) and counted, not silent."""

from __future__ import annotations

import logging

import pytest

from repro import kernels
from repro.kernels import KernelBackend, get_backend
from repro.obs import metrics


@pytest.fixture
def broken_accelerated(monkeypatch, reset_registry):
    """Make every accelerated backend fail to build (numpy still works)."""
    def build(name):
        if name == "numpy":
            return KernelBackend("numpy")
        raise RuntimeError(f"{name} unavailable (test)")
    monkeypatch.setattr(kernels, "_build", build)


def test_auto_fallback_warns_once(broken_accelerated, caplog):
    with caplog.at_level(logging.WARNING, logger="repro.kernels"):
        backend = get_backend("auto")
    assert backend.name == "numpy"
    warnings = [r for r in caplog.records if "fell back" in r.message]
    assert len(warnings) == 1
    # The warning names each failed candidate and the cure.
    message = warnings[0].getMessage()
    assert "cext" in message
    assert "unavailable (test)" in message

    # Re-detection (cache dropped) must not warn again this process.
    caplog.clear()
    kernels._CACHE.pop("auto")
    with caplog.at_level(logging.WARNING, logger="repro.kernels"):
        assert get_backend("auto").name == "numpy"
    assert not [r for r in caplog.records if "fell back" in r.message]


def test_auto_fallback_bumps_obs_counter(broken_accelerated):
    metrics.set_enabled(True)
    metrics.reset_metrics()
    try:
        get_backend("auto")
        counters = metrics.snapshot()["counters"]
        assert counters["kernels.auto_fallback"] == 1
    finally:
        metrics.set_enabled(False)
        metrics.reset_metrics()


def test_cached_auto_hit_does_not_warn(broken_accelerated, caplog):
    with caplog.at_level(logging.WARNING, logger="repro.kernels"):
        get_backend("auto")
        caplog.clear()
        get_backend("auto")  # served from cache
    assert not caplog.records


def test_backend_selected_counter():
    metrics.set_enabled(True)
    metrics.reset_metrics()
    try:
        resolved = kernels.resolve_backend("numpy")
        counters = metrics.snapshot()["counters"]
        assert counters[f"kernels.backend_selected{{backend={resolved.name}}}"] == 1
    finally:
        metrics.set_enabled(False)
        metrics.reset_metrics()
