"""Every ``REPRO_*`` environment knob the package reads, in one table.

:data:`KNOBS` has one row per variable: its name, the values it
accepts, its default and its parser.  Two entry points use it:

* :func:`get` reads the environment *at call time* and parses the value
  strictly.  Nothing is snapshotted: ``monkeypatch.setenv`` in tests, a
  benchmark switching the disk cache off mid-process and forked or
  spawned pool workers all see the one source, the environment.
* :func:`override` sets knobs for the body of a ``with`` block (the CLI
  runs each command inside one) and restores the previous environment
  on exit, so an in-process caller never inherits them.

Unset or empty means the default.  Booleans accept exactly ``0`` or
``1``; choices are compared after ``strip().lower()``; counts must
parse as integers ``>= 0``.  Any other value raises :class:`ValueError`
naming the variable and what it accepts.
"""

from __future__ import annotations

import contextlib
import os
from typing import Any, Callable, Dict, FrozenSet, Iterator, NamedTuple, Tuple

from repro.errors import ProgramError

#: The selectable architectures (``REPRO_MODEL``), strongest-admitting
#: first; see :func:`repro.memory.semantics.resolve_model`.
MODEL_NAMES: Tuple[str, ...] = ("arm", "tso", "sc")

#: The verification backends (``REPRO_BACKEND``); see :mod:`repro.smt`.
BACKENDS: Tuple[str, ...] = ("explore", "bmc")

#: The relaxed-VM behavior families (``REPRO_VM_FEATURES``), described
#: in :mod:`repro.memory.semantics`.
VM_FEATURES: Tuple[str, ...] = ("bbm", "had", "stage2", "walk-cache")


def parse_vm_features(text: str) -> FrozenSet[str]:
    """Parse a comma-separated feature list (``all`` enables every one)."""
    names = [part.strip() for part in text.split(",") if part.strip()]
    if "all" in names:
        return frozenset(VM_FEATURES)
    unknown = [n for n in names if n not in VM_FEATURES]
    if unknown:
        raise ProgramError(
            f"unknown VM feature(s) {', '.join(sorted(unknown))}; "
            f"known: {', '.join(VM_FEATURES)} (or 'all')"
        )
    return frozenset(names)


def _flag(raw: str) -> bool:
    if raw not in ("0", "1"):
        raise ValueError(raw)
    return raw == "1"


def _choice(names: Tuple[str, ...]) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        value = raw.strip().lower()
        if value not in names:
            raise ValueError(raw)
        return value
    return parse


def _count(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise ValueError(raw)
    return value


class Knob(NamedTuple):
    """One row of :data:`KNOBS`."""

    env: str
    accepts: str
    default: Any
    parse: Callable[[str], Any]


_BOOL = "0 or 1"
_COUNT = "an integer >= 0"

#: name -> row; :func:`get` and :func:`override` take the name.
KNOBS: Dict[str, Knob] = {
    "model": Knob("REPRO_MODEL", "one of " + ", ".join(MODEL_NAMES),
                  "arm", _choice(MODEL_NAMES)),
    "vm_features": Knob(
        "REPRO_VM_FEATURES",
        "a comma list of " + ", ".join(VM_FEATURES) + ", or all",
        frozenset(), parse_vm_features,
    ),
    "por": Knob("REPRO_POR", _BOOL, True, _flag),
    "intern": Knob("REPRO_INTERN", _BOOL, True, _flag),
    "cert_memo": Knob("REPRO_CERT_MEMO", _BOOL, True, _flag),
    "fuse": Knob("REPRO_FUSE", _BOOL, True, _flag),
    "explore_cache": Knob("REPRO_EXPLORE_CACHE", _BOOL, True, _flag),
    "explore_memo": Knob("REPRO_EXPLORE_MEMO", _BOOL, True, _flag),
    "explore_cache_dir": Knob("REPRO_EXPLORE_CACHE_DIR", "a directory",
                              None, str),
    "backend": Knob("REPRO_BACKEND", "one of " + ", ".join(BACKENDS),
                    "explore", _choice(BACKENDS)),
    "bmc_depth": Knob("REPRO_BMC_DEPTH", _COUNT, None, _count),
    "bmc_induction": Knob("REPRO_BMC_INDUCTION", _BOOL, False, _flag),
    "serve_host": Knob("REPRO_SERVE_HOST", "a bind address", "127.0.0.1",
                       str),
    "serve_port": Knob("REPRO_SERVE_PORT", _COUNT, 8044, _count),
    "serve_workers": Knob("REPRO_SERVE_WORKERS", _COUNT, 1, _count),
    "serve_queue": Knob("REPRO_SERVE_QUEUE", _COUNT, 64, _count),
}


def _parse(knob: Knob, raw: str) -> Any:
    try:
        return knob.parse(raw)
    except (ValueError, ProgramError):
        raise ValueError(
            f"{knob.env}={raw!r} is invalid; expected {knob.accepts}"
        ) from None


def get(name: str) -> Any:
    """The current value of knob *name* (a :data:`KNOBS` key)."""
    knob = KNOBS[name]
    raw = os.environ.get(knob.env)
    if not raw:
        return knob.default
    return _parse(knob, raw)


@contextlib.contextmanager
def override(**values: Any) -> Iterator[None]:
    """Set knobs (by :data:`KNOBS` name) for the ``with`` body.

    Values are given parsed (``override(model="sc", cert_memo=False)``)
    or in their environment spelling; ``None`` leaves a knob as it is.
    Every value is validated before any is set, and the previous
    environment is restored on exit, exception or not.
    """
    updates: Dict[str, str] = {}
    for name, value in values.items():
        knob = KNOBS[name]
        if value is None:
            continue
        raw = str(int(value)) if isinstance(value, bool) else str(value)
        if raw:
            _parse(knob, raw)
        updates[knob.env] = raw
    saved = {env: os.environ.get(env) for env in updates}
    os.environ.update(updates)
    try:
        yield
    finally:
        for env, previous in saved.items():
            if previous is None:
                os.environ.pop(env, None)
            else:
                os.environ[env] = previous
