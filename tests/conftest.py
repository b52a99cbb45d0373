"""Fixtures shared across the test packages."""

import pytest


@pytest.fixture
def heap_core(monkeypatch):
    """Run every pipeline and serving simulation on the heap-core
    oracle: :class:`tests.engine.reference_core.HeapSimulator` replaces
    ``Simulator`` at its only two construction sites."""
    import repro.core.pipeline
    import repro.serve.service
    from tests.engine.reference_core import HeapSimulator

    for module in (repro.core.pipeline, repro.serve.service):
        monkeypatch.setattr(module, "Simulator", HeapSimulator)
    return HeapSimulator
