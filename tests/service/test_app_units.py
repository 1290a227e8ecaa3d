"""Unit tests of the service core: mapping, caching, store-less mode."""

from __future__ import annotations

import pytest

from repro.exceptions import (
    BucketingError,
    IngestError,
    OptimizationError,
    PipelineError,
    SchemaError,
    ServiceError,
    ShardCorrupt,
    SourceChangedError,
    StoreError,
)
from repro.service import RuleService, ServiceConfig, map_error_status
from repro.service.app import _LRUCache

from service_support import BUCKETS, SEED, TOKEN


@pytest.mark.parametrize(
    ("error", "status"),
    [
        (ServiceError("nope"), 400),
        (ServiceError("gone", status=404), 404),
        (SourceChangedError("drifted"), 409),
        (IngestError("stalled"), 503),
        (ShardCorrupt("tampered"), 502),
        (SchemaError("bad attribute"), 400),
        (OptimizationError("bad threshold"), 400),
        (BucketingError("bad buckets"), 400),
        (StoreError("corrupt"), 500),
        (PipelineError("misconfigured"), 500),
    ],
)
def test_error_status_mapping(error, status):
    assert map_error_status(error) == status


def test_source_changed_outranks_its_store_error_base():
    # SourceChangedError IS a StoreError; the mapping must still say 409.
    assert isinstance(SourceChangedError("x"), StoreError)
    assert map_error_status(SourceChangedError("x")) == 409


def test_lru_cache_evicts_oldest():
    cache = _LRUCache(max_entries=2)
    cache.put(("a",), {"v": 1})
    cache.put(("b",), {"v": 2})
    assert cache.get(("a",)) == {"v": 1}  # refresh "a"
    cache.put(("c",), {"v": 3})
    assert cache.get(("b",)) is None
    assert cache.get(("a",)) == {"v": 1}
    assert cache.get(("c",)) == {"v": 3}
    assert len(cache) == 2


def test_unsupported_source_kind_is_rejected_at_construction(tmp_path):
    with pytest.raises(ServiceError) as excinfo:
        RuleService(ServiceConfig(data=str(tmp_path / "x.csv"), source="memory"))
    assert excinfo.value.status == 500


def test_storeless_service_mines_but_has_no_store_endpoints(service_csv):
    service = RuleService(
        ServiceConfig(
            data=str(service_csv), token=TOKEN, num_buckets=BUCKETS, seed=SEED
        )
    )
    headers = {"authorization": f"Bearer {TOKEN}"}
    status, body = service.handle("GET", "/v1/catalog", headers=headers)
    assert status == 200
    assert body["store_status"] is None
    assert body["num_pairs"] > 0
    status, body = service.handle("GET", "/v1/store/inspect", headers=headers)
    assert status == 404
    status, body = service.handle("POST", "/v1/store/append", headers=headers)
    assert status == 404
    status, body = service.handle("GET", "/readyz")
    assert status == 200
    assert body["checks"]["store"] == "disabled"


def test_missing_data_file_makes_readyz_unready(tmp_path):
    service = RuleService(ServiceConfig(data=str(tmp_path / "absent.csv")))
    status, body = service.handle("GET", "/readyz")
    assert status == 503
    assert body["status"] == "unready"
    # And a mining request against it is a typed error, not a crash.
    status, body = service.handle("GET", "/v1/catalog")
    assert status >= 400
    assert "error" in body
