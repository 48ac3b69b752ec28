"""configure_logging: one entry point for the repro.* logger tree."""

from __future__ import annotations

import io
import logging

import pytest

from repro.obs.logconfig import _HANDLER_MARK, configure_logging


@pytest.fixture(autouse=True)
def _restore_repro_loggers():
    """Leave the repro logger tree the way the session found it."""
    root = logging.getLogger("repro")
    saved = (root.level, list(root.handlers), root.propagate)
    branches = {
        name: logging.getLogger(name).level
        for name in ("repro.resilience", "repro.obs")
    }
    yield
    root.setLevel(saved[0])
    root.handlers[:] = saved[1]
    root.propagate = saved[2]
    for name, level in branches.items():
        logging.getLogger(name).setLevel(level)


def test_configures_stream_and_level():
    stream = io.StringIO()
    configure_logging(level="WARNING", stream=stream)
    logging.getLogger("repro.resilience.platform").warning("journal torn")
    logging.getLogger("repro.resilience.platform").info("not shown")
    text = stream.getvalue()
    assert "journal torn" in text
    assert "repro.resilience.platform" in text
    assert "not shown" not in text


def test_subsystem_overrides_resolve_bare_and_qualified_names():
    stream = io.StringIO()
    configure_logging(
        level="WARNING",
        subsystems={"resilience": "DEBUG", "repro.obs": "ERROR"},
        stream=stream,
    )
    assert logging.getLogger("repro.resilience").level == logging.DEBUG
    assert logging.getLogger("repro.obs").level == logging.ERROR
    logging.getLogger("repro.resilience.selfheal").debug("cache repair detail")
    assert "cache repair detail" in stream.getvalue()


def test_reconfigure_replaces_handler_instead_of_stacking():
    first, second = io.StringIO(), io.StringIO()
    configure_logging(stream=first)
    configure_logging(stream=second)
    root = logging.getLogger("repro")
    marked = [h for h in root.handlers if getattr(h, _HANDLER_MARK, False)]
    assert len(marked) == 1
    logging.getLogger("repro.obs").info("once only")
    assert "once only" not in first.getvalue()
    assert second.getvalue().count("once only") == 1
