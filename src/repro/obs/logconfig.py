"""One entry point for the ``repro.*`` logging hierarchy.

Every diagnostic in the codebase goes through a namespaced stdlib
logger:

* ``repro.resilience.platform`` — journal/checkpoint recovery, rejected
  events, resume fallbacks;
* ``repro.resilience.selfheal`` — incremental-cache invariant
  violations and repairs;
* ``repro.obs`` — the observability layer itself.

All of them are children of the ``repro`` root logger, so one
:func:`configure_logging` call makes the whole tree visible, and the
``subsystems`` mapping turns individual branches up or down — e.g.
chaos-test triage wants ``repro.resilience`` at DEBUG while the rest
stays at WARNING.  Libraries must not touch global logging config on
import, which is why this is an explicit entry point and not an import
side effect; calling it twice reconfigures instead of stacking handlers.
"""

from __future__ import annotations

import logging
import sys
from typing import Dict, Optional

__all__ = ["configure_logging"]

#: Marker attribute identifying the handler this module installed, so
#: reconfiguration replaces it instead of accumulating duplicates.
_HANDLER_MARK = "_repro_obs_handler"

_DEFAULT_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"


def configure_logging(
    level: int | str = logging.INFO,
    subsystems: Optional[Dict[str, int | str]] = None,
    stream=None,
    fmt: str = _DEFAULT_FORMAT,
) -> logging.Logger:
    """Configure the ``repro`` logger tree and return its root.

    Parameters
    ----------
    level:
        Level of the ``repro`` root logger (name or numeric).
    subsystems:
        Per-branch overrides, e.g. ``{"resilience": "DEBUG",
        "assignment.executor": "ERROR"}``.  Bare names are resolved
        relative to ``repro.``; fully-qualified ``repro.*`` names pass
        through unchanged.
    stream:
        Destination stream (default ``sys.stderr``).
    fmt:
        Handler format string.
    """
    root = logging.getLogger("repro")
    root.setLevel(level)
    for handler in list(root.handlers):
        if getattr(handler, _HANDLER_MARK, False):
            root.removeHandler(handler)
    handler = logging.StreamHandler(stream or sys.stderr)
    handler.setFormatter(logging.Formatter(fmt))
    setattr(handler, _HANDLER_MARK, True)
    root.addHandler(handler)
    # Records are handled here; the root logger's lastResort handler
    # would otherwise print them a second time.
    root.propagate = False
    for name, branch_level in (subsystems or {}).items():
        qualified = name if name.startswith("repro") else f"repro.{name}"
        logging.getLogger(qualified).setLevel(branch_level)
    return root
