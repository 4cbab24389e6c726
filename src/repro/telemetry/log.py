"""The one stdlib-logging configurator for CLI and library progress lines.

Progress and status output used to be ad-hoc ``print()`` calls scattered
through the CLI; they now flow through the ``"repro"`` logger hierarchy,
configured in exactly one place so ``--verbose`` / ``--quiet`` mean the
same thing everywhere:

* quiet (``-q``): warnings and errors only;
* default: progress lines, bare (no timestamps — the CLI's output is the
  interface, so INFO lines must stay byte-compatible with what scripts
  and CI greps already consume);
* verbose (``-v``): DEBUG from every subsystem, with timestamps, level,
  and logger name — the dispatcher's lease decisions, the telemetry
  layer's bring-up.

The handler resolves ``sys.stdout`` at emit time rather than capturing it
at configure time, so output lands wherever stdout currently points —
pytest's capture, a ``tee`` pipe, a real terminal — exactly as ``print``
would.
"""

from __future__ import annotations

import logging
import sys

#: Root of the library's logger hierarchy.
ROOT_LOGGER = "repro"

_VERBOSE_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"
_PLAIN_FORMAT = "%(message)s"


class _CurrentStdoutHandler(logging.StreamHandler):
    """A stream handler bound to *current* ``sys.stdout`` at emit time."""

    def __init__(self) -> None:
        super().__init__(sys.stdout)

    def emit(self, record: logging.LogRecord) -> None:
        self.stream = sys.stdout
        super().emit(record)


def get_logger(name: str = ROOT_LOGGER) -> logging.Logger:
    """A logger under the ``repro`` hierarchy (idempotent, cheap)."""
    if name == ROOT_LOGGER or name.startswith(ROOT_LOGGER + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER}.{name}")


def configure_logging(verbosity: int = 0) -> logging.Logger:
    """(Re)configure the ``repro`` logger tree for one CLI invocation.

    ``verbosity`` is ``--verbose`` count minus ``--quiet`` count:
    negative → WARNING, 0 → INFO with bare messages, positive → DEBUG with
    full context.  Reconfiguring replaces this module's handler rather
    than stacking another, so repeated CLI calls in one process (tests)
    never double-print.
    """
    logger = logging.getLogger(ROOT_LOGGER)
    for handler in list(logger.handlers):
        if isinstance(handler, _CurrentStdoutHandler):
            logger.removeHandler(handler)
    handler = _CurrentStdoutHandler()
    if verbosity > 0:
        level = logging.DEBUG
        handler.setFormatter(logging.Formatter(_VERBOSE_FORMAT))
    elif verbosity < 0:
        level = logging.WARNING
        handler.setFormatter(logging.Formatter(_PLAIN_FORMAT))
    else:
        level = logging.INFO
        handler.setFormatter(logging.Formatter(_PLAIN_FORMAT))
    logger.addHandler(handler)
    logger.setLevel(level)
    logger.propagate = False
    # Engine internals (per-phase tournament narration under
    # ``repro.core``) are debug detail: surfaced with ``-v``, kept out of
    # the default progress stream, which is reserved for sweep-level lines.
    logging.getLogger(ROOT_LOGGER + ".core").setLevel(
        logging.DEBUG if verbosity > 0 else logging.WARNING
    )
    return logger


def reset_logging() -> None:
    """Undo :func:`configure_logging` — back to library-default logging.

    Removes this module's handler and restores level/propagation on the
    loggers :func:`configure_logging` touches, so embedding applications
    (and tests capturing via root-level handlers) see the tree exactly as
    if the CLI had never configured it.
    """
    logger = logging.getLogger(ROOT_LOGGER)
    for handler in list(logger.handlers):
        if isinstance(handler, _CurrentStdoutHandler):
            logger.removeHandler(handler)
    logger.setLevel(logging.NOTSET)
    logger.propagate = True
    logging.getLogger(ROOT_LOGGER + ".core").setLevel(logging.NOTSET)
