"""Canonical JSON and sha256 digests: the determinism anchors' one owner.

Every golden digest in the repo is sha256 over one of exactly two
byte formats, and this is the only module that knows either:

* **compact** -- :func:`canonical_json`: sorted keys, ``(",", ":")``
  separators, floats in Python's shortest round-trip ``repr``.  Wire
  lines, journal records, and the plan, snapshot, trace, board and
  cross-board digests use it (:func:`canonical_digest`).  A value JSON
  cannot encode raises ``TypeError`` rather than being coerced.
* **float-exact report** -- :func:`report_digest`: every float is first
  replaced by its ``repr`` string (:func:`exact_floats`), then encoded
  with sorted keys and the default separators.  The fleet, chaos and
  scenario report digests were pinned this way.

Changing either format moves every pinned digest, so neither takes a
flag or mode: a new format would be a new function.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any


def canonical_json(data: Any) -> str:
    """The compact canonical encoding (one line, sorted keys)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def canonical_digest(data: Any) -> str:
    """sha256 hex digest of :func:`canonical_json`."""
    return _sha256(canonical_json(data))


def exact_floats(value: Any) -> Any:
    """``value`` with every float ``repr``-ed, recursively.

    ``repr`` round-trips a float's exact binary value, so a digest over
    the result changes iff some number changed in any bit.  Tuples
    become lists, mapping keys become strings, and any other non-JSON
    scalar becomes its ``repr``.
    """
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [exact_floats(v) for v in value]
    if isinstance(value, dict):
        return {str(k): exact_floats(v) for k, v in value.items()}
    return repr(value)


def report_digest(data: Any) -> str:
    """sha256 hex digest of the float-exact report encoding."""
    return _sha256(json.dumps(exact_floats(data), sort_keys=True))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
