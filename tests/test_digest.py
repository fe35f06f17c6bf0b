"""repro.digest: the two canonical byte formats and their sole ownership."""

import json
import math
import pathlib
import re

import pytest

from repro import digest
from repro.serve.service import PlanService

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


class TestCanonicalJson:
    def test_sorted_keys_no_whitespace(self):
        assert digest.canonical_json({"b": [1, 2.5], "a": None}) == (
            '{"a":null,"b":[1,2.5]}'
        )

    def test_inf_encodes_as_infinity(self):
        assert digest.canonical_json({"le": math.inf}) == '{"le":Infinity}'

    def test_unserializable_value_raises(self):
        with pytest.raises(TypeError):
            digest.canonical_json({"x": object()})

    def test_digest_is_key_order_invariant(self):
        assert digest.canonical_digest(
            {"a": 1, "b": {"y": 2, "x": 3}}
        ) == digest.canonical_digest({"b": {"x": 3, "y": 2}, "a": 1})

    def test_serve_plan_digest_is_the_shared_function(self):
        from repro.serve import plan_digest

        assert plan_digest is digest.canonical_digest


class TestExactFloats:
    def test_recurses_into_containers(self):
        value = {"a": [0.1, (2, 1e-07)], 3: {"x": 0.5, "n": None}}
        assert digest.exact_floats(value) == {
            "a": ["0.1", [2, "1e-07"]],
            "3": {"x": "0.5", "n": None},
        }

    def test_keeps_json_scalars_and_reprs_others(self):
        assert digest.exact_floats([True, 1, "s", None]) == [
            True, 1, "s", None,
        ]
        assert digest.exact_floats(complex(1, 2)) == "(1+2j)"

    def test_report_format_differs_from_compact(self):
        data = {"x": 1.5}
        assert digest.report_digest(data) != digest.canonical_digest(data)


def test_plan_cache_key_needs_jsonable_before_encoding():
    """Real cache keys hold dataclass fingerprints JSON cannot encode,
    which is why ``shared_cache.wire_key`` maps them first."""
    service = PlanService()
    key = service.cache_key(service.resolve_model("tiny"), ("percent", 30.0))
    with pytest.raises(TypeError):
        json.dumps(key, sort_keys=True, separators=(",", ":"))


def test_only_digest_module_and_ring_placement_import_hashlib():
    importers = sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if re.search(r"^\s*import hashlib", path.read_text(), re.M)
    )
    assert importers == ["digest.py", "serve/router.py"]
