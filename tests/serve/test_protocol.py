"""Wire protocol: framing, validation, typed errors, digests."""

import json

import pytest

from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    ProtocolError,
    QoSInfeasibleError,
    ReproError,
    SolverError,
)
from repro.serve import plan_digest
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ErrorPayload,
    Request,
    Response,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    error_from_exception,
    exception_from_error,
)


class TestRequestRoundTrip:
    def test_round_trip(self):
        request = Request(
            op="plan",
            id="c1-7",
            params={"model": "tiny", "qos_percent": 30},
            deadline_s=0.5,
        )
        decoded = decode_request(encode_request(request))
        assert decoded == request

    def test_one_line(self):
        line = encode_request(
            Request(op="plan", id="x", params={"note": "a\nb"})
        )
        assert "\n" not in line

    def test_deadline_omitted(self):
        decoded = decode_request(
            encode_request(Request(op="stats", id="s-1"))
        )
        assert decoded.deadline_s is None


class TestRequestValidation:
    def test_unparseable_json(self):
        with pytest.raises(ProtocolError, match="unparseable"):
            decode_request("{nope")

    def test_non_object(self):
        with pytest.raises(ProtocolError, match="object"):
            decode_request("[1,2]")

    def test_wrong_version(self):
        line = json.dumps({"v": 999, "id": "a", "op": "plan"})
        with pytest.raises(ProtocolError, match="version"):
            decode_request(line)

    def test_unknown_op(self):
        line = json.dumps(
            {"v": PROTOCOL_VERSION, "id": "a", "op": "transmogrify"}
        )
        with pytest.raises(ProtocolError, match="unknown op"):
            decode_request(line)

    def test_empty_id(self):
        line = json.dumps({"v": PROTOCOL_VERSION, "id": "", "op": "plan"})
        with pytest.raises(ProtocolError, match="id"):
            decode_request(line)

    def test_non_dict_params(self):
        line = json.dumps(
            {"v": PROTOCOL_VERSION, "id": "a", "op": "plan", "params": 3}
        )
        with pytest.raises(ProtocolError, match="params"):
            decode_request(line)

    def test_negative_deadline(self):
        line = json.dumps(
            {
                "v": PROTOCOL_VERSION,
                "id": "a",
                "op": "plan",
                "deadline_s": -1,
            }
        )
        with pytest.raises(ProtocolError, match="positive"):
            decode_request(line)


class TestResponseRoundTrip:
    def test_success(self):
        response = Response.success("r-1", {"digest": "abc"})
        decoded = decode_response(encode_response(response))
        assert decoded.ok
        assert decoded.result == {"digest": "abc"}

    def test_failure(self):
        response = Response.failure(
            "r-2", QoSInfeasibleError(qos_s=0.001, min_latency_s=0.002)
        )
        decoded = decode_response(encode_response(response))
        assert not decoded.ok
        assert decoded.error.kind == "qos_infeasible"
        assert decoded.error.detail["qos_s"] == pytest.approx(0.001)


class TestErrorMapping:
    def test_typed_kinds(self):
        cases = [
            (QoSInfeasibleError(qos_s=1.0, min_latency_s=2.0), "qos_infeasible"),
            (OverloadedError(reason="queue_full"), "overloaded"),
            (DeadlineExceededError(deadline_s=0.1), "deadline_exceeded"),
            (ProtocolError("bad"), "bad_request"),
            (SolverError("no"), "solver"),
            (ReproError("plain"), "repro_error"),
            (ValueError("python"), "internal"),
        ]
        for exc, kind in cases:
            assert error_from_exception(exc).kind == kind

    def test_overloaded_rehydrates(self):
        payload = error_from_exception(
            OverloadedError(reason="rate_limited", retry_after_s=0.25)
        )
        exc = exception_from_error(payload)
        assert isinstance(exc, OverloadedError)
        assert exc.reason == "rate_limited"
        assert exc.retry_after_s == pytest.approx(0.25)

    def test_qos_infeasible_rehydrates(self):
        payload = error_from_exception(
            QoSInfeasibleError(qos_s=0.5, min_latency_s=0.9)
        )
        exc = exception_from_error(payload)
        assert isinstance(exc, QoSInfeasibleError)
        assert exc.min_latency_s == pytest.approx(0.9)

    def test_unknown_kind_degrades(self):
        exc = exception_from_error(
            ErrorPayload(kind="martian", message="boom")
        )
        assert type(exc) is ReproError
        assert "martian" in str(exc)


class TestPlanDigest:
    def test_key_order_invariant(self):
        a = {"b": 1, "a": {"y": 2, "x": 3}}
        b = {"a": {"x": 3, "y": 2}, "b": 1}
        assert plan_digest(a) == plan_digest(b)

    def test_value_sensitivity(self):
        assert plan_digest({"a": 1}) != plan_digest({"a": 2})
