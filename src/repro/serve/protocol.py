"""Versioned JSON-lines request/response protocol of the serve layer.

One request or response is one line of JSON (no embedded newlines),
so the transport is trivially framable over TCP, pipes or files:

Request::

    {"v": 1, "id": "c1-7", "op": "plan",
     "params": {"model": "tiny", "qos_percent": 30},
     "deadline_s": 0.5}

Response::

    {"v": 1, "id": "c1-7", "ok": true, "result": {...}}
    {"v": 1, "id": "c1-7", "ok": false,
     "error": {"kind": "qos_infeasible", "message": "...",
               "detail": {"qos_s": 0.001, "min_latency_s": 0.0019}}}

Operations: ``plan`` (optimize a deployment plan), ``reprice``
(re-solve the MCKP over cached fronts under drifted conditions),
``telemetry`` (report a measured-vs-predicted energy sample),
``stats`` (full status payload), ``health`` (quick selftest subset)
and ``metrics`` (registry snapshot only, optionally rendered as
Prometheus exposition text via ``params: {"format": "prom"}``).

Every library exception maps to a *typed* error payload via
:func:`error_from_exception`, so clients switch on ``error.kind``
instead of parsing messages.  Unknown kinds degrade to ``internal``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from .. import errors
from ..digest import canonical_json

#: Wire-format version; bumped on incompatible schema changes.
PROTOCOL_VERSION = 1

#: The operations a server understands.
OPS = ("plan", "reprice", "telemetry", "stats", "health", "metrics")

#: Exception class -> wire error kind.  Checked in order, so
#: subclasses must precede their bases.
_ERROR_KINDS = (
    (errors.QoSInfeasibleError, "qos_infeasible"),
    (errors.OverloadedError, "overloaded"),
    (errors.ServeUnavailableError, "unavailable"),
    (errors.DeadlineExceededError, "deadline_exceeded"),
    (errors.ProtocolError, "bad_request"),
    (errors.SolverError, "solver"),
    (errors.GraphError, "graph"),
    (errors.DesignSpaceError, "design_space"),
    (errors.ClockConfigError, "clock_config"),
    (errors.ClockSwitchError, "clock_switch"),
    (errors.PowerModelError, "power_model"),
    (errors.SensorReadError, "sensor_read"),
    (errors.WatchdogResetError, "watchdog_reset"),
    (errors.FaultInjectionError, "fault_injection"),
    (errors.ReproError, "repro_error"),
)


@dataclass(frozen=True)
class ErrorPayload:
    """Typed wire encoding of one failure."""

    kind: str
    message: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind, "message": self.message}
        if self.detail:
            data["detail"] = self.detail
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ErrorPayload":
        return cls(
            kind=str(data.get("kind", "internal")),
            message=str(data.get("message", "")),
            detail=dict(data.get("detail", {})),
        )


def error_from_exception(exc: BaseException) -> ErrorPayload:
    """Map a raised exception to its typed wire payload."""
    detail: Dict[str, Any] = {}
    if isinstance(exc, errors.QoSInfeasibleError):
        detail = {
            "qos_s": exc.qos_s,
            "min_latency_s": exc.min_latency_s,
        }
    elif isinstance(exc, errors.OverloadedError):
        detail = {
            "reason": exc.reason,
            "retry_after_s": exc.retry_after_s,
        }
    elif isinstance(exc, errors.ServeUnavailableError):
        detail = {
            "attempts": exc.attempts,
            "last_error": exc.last_error,
        }
    elif isinstance(exc, errors.DeadlineExceededError):
        detail = {"deadline_s": exc.deadline_s}
    elif isinstance(exc, errors.WatchdogResetError):
        detail = {"layer_name": exc.layer_name, "resets": exc.resets}
    for klass, kind in _ERROR_KINDS:
        if isinstance(exc, klass):
            return ErrorPayload(kind=kind, message=str(exc), detail=detail)
    return ErrorPayload(kind="internal", message=str(exc), detail=detail)


def exception_from_error(error: ErrorPayload) -> errors.ReproError:
    """Rehydrate a client-side exception from a typed payload.

    Only the kinds a client is expected to branch on get their real
    class back; everything else surfaces as a plain
    :class:`~repro.errors.ReproError` carrying the wire message.
    """
    if error.kind == "qos_infeasible":
        return errors.QoSInfeasibleError(
            qos_s=float(error.detail.get("qos_s", 0.0)),
            min_latency_s=float(error.detail.get("min_latency_s", 0.0)),
        )
    if error.kind == "overloaded":
        return errors.OverloadedError(
            reason=str(error.detail.get("reason", "overloaded")),
            retry_after_s=float(error.detail.get("retry_after_s", 0.0)),
        )
    if error.kind == "unavailable":
        return errors.ServeUnavailableError(
            attempts=int(error.detail.get("attempts", 1)),
            last_error=str(error.detail.get("last_error", "")),
        )
    if error.kind == "deadline_exceeded":
        return errors.DeadlineExceededError(
            deadline_s=float(error.detail.get("deadline_s", 0.0))
        )
    if error.kind == "bad_request":
        return errors.ProtocolError(error.message)
    return errors.ReproError(f"[{error.kind}] {error.message}")


@dataclass(frozen=True)
class Request:
    """One decoded request line."""

    op: str
    id: str
    params: Dict[str, Any] = field(default_factory=dict)
    deadline_s: Optional[float] = None


@dataclass(frozen=True)
class Response:
    """One decoded response line."""

    id: str
    ok: bool
    result: Optional[Dict[str, Any]] = None
    error: Optional[ErrorPayload] = None

    @classmethod
    def success(cls, request_id: str, result: Dict[str, Any]) -> "Response":
        return cls(id=request_id, ok=True, result=result)

    @classmethod
    def failure(cls, request_id: str, exc: BaseException) -> "Response":
        return cls(id=request_id, ok=False, error=error_from_exception(exc))


def encode_request(request: Request) -> str:
    """Encode a request as one JSON line (without the newline)."""
    data: Dict[str, Any] = {
        "v": PROTOCOL_VERSION,
        "id": request.id,
        "op": request.op,
        "params": request.params,
    }
    if request.deadline_s is not None:
        data["deadline_s"] = request.deadline_s
    return canonical_json(data)


def encode_response(response: Response) -> str:
    """Encode a response as one JSON line (without the newline)."""
    data: Dict[str, Any] = {
        "v": PROTOCOL_VERSION,
        "id": response.id,
        "ok": response.ok,
    }
    if response.ok:
        data["result"] = response.result or {}
    else:
        error = response.error or ErrorPayload("internal", "unknown error")
        data["error"] = error.to_dict()
    return canonical_json(data)


def _parse_line(line: str) -> Dict[str, Any]:
    try:
        data = json.loads(line)
    except (TypeError, ValueError) as err:
        raise errors.ProtocolError(f"unparseable JSON line: {err}") from err
    if not isinstance(data, dict):
        raise errors.ProtocolError(
            f"expected a JSON object, got {type(data).__name__}"
        )
    version = data.get("v")
    if version != PROTOCOL_VERSION:
        raise errors.ProtocolError(
            f"unsupported protocol version {version!r} "
            f"(expected {PROTOCOL_VERSION})"
        )
    return data


def decode_request(line: str) -> Request:
    """Decode and validate one request line.

    Raises:
        ProtocolError: malformed JSON, wrong version, unknown op,
            missing id, or ill-typed params/deadline.
    """
    data = _parse_line(line)
    op = data.get("op")
    if op not in OPS:
        raise errors.ProtocolError(
            f"unknown op {op!r}; expected one of {sorted(OPS)}"
        )
    request_id = data.get("id")
    if not isinstance(request_id, str) or not request_id:
        raise errors.ProtocolError("request id must be a non-empty string")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise errors.ProtocolError("params must be a JSON object")
    deadline_s = data.get("deadline_s")
    if deadline_s is not None:
        try:
            deadline_s = float(deadline_s)
        except (TypeError, ValueError) as err:
            raise errors.ProtocolError(
                f"deadline_s must be a number: {err}"
            ) from err
        if deadline_s <= 0:
            raise errors.ProtocolError("deadline_s must be positive")
    return Request(
        op=op, id=request_id, params=params, deadline_s=deadline_s
    )


def decode_response(line: str) -> Response:
    """Decode one response line.

    Raises:
        ProtocolError: malformed JSON or wrong version.
    """
    data = _parse_line(line)
    request_id = str(data.get("id", ""))
    ok = bool(data.get("ok"))
    if ok:
        result = data.get("result", {})
        if not isinstance(result, dict):
            raise errors.ProtocolError("result must be a JSON object")
        return Response(id=request_id, ok=True, result=result)
    error = data.get("error")
    if not isinstance(error, dict):
        raise errors.ProtocolError("error must be a JSON object")
    return Response(
        id=request_id, ok=False, error=ErrorPayload.from_dict(error)
    )
