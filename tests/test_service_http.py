"""HTTP layer: endpoints, backpressure headers, streaming, exposition.

One module-scoped accept-only server (no worker nodes) covers the pure
request/response surface deterministically; the few cases that need real
results run a FarmNode step inline against the same queue directory.
"""

import http.client
import json
import time

import pytest

from repro.instrument.recorder import Recorder
from repro.jobs.spec import CircuitRef, JobSpec
from repro.service.client import Backpressure, ServiceClient, ServiceError
from repro.service.node import FarmNode
from repro.service.server import (
    MAX_BODY_BYTES,
    ServiceServer,
    build_campaign,
    spec_from_payload,
)

DECK = """rc lowpass
V1 in 0 SIN(0 1 1k)
R1 in out 1k
C1 out 0 1u
.tran 10u 1m
.end
"""


def rc_spec(label="rc", **kw) -> JobSpec:
    return JobSpec(circuit=CircuitRef(kind="netlist", netlist=DECK), label=label, **kw)


def variant(i: int) -> JobSpec:
    return rc_spec(label=f"v{i}", params={"R1": 1e3 * (1.0 + 0.01 * i)})


@pytest.fixture
def server(tmp_path):
    with ServiceServer(tmp_path / "q", recorder=Recorder(capture_events=False)) as srv:
        yield srv


@pytest.fixture
def client(server):
    return ServiceClient(server.url, tenant="testsuite")


class TestSubmitEndpoints:
    def test_submit_job_returns_202_with_hash_id(self, server, client):
        spec = variant(0)
        receipt = client.submit_job(spec)
        assert receipt["id"] == spec.content_hash()
        assert receipt["status"] == "pending"
        assert receipt["created"] and not receipt["deduped"]
        assert receipt["queue_depth"] == 1

    def test_duplicate_submit_dedups(self, server, client):
        client.submit_job(variant(0))
        receipt = client.submit_job(variant(0))
        assert receipt["deduped"] and not receipt["created"]
        assert receipt["queue_depth"] == 1

    def test_tenant_from_header_and_body(self, server, client):
        client.submit_job(variant(0))  # X-Tenant: testsuite
        conn = http.client.HTTPConnection(server.host, server.port, timeout=5)
        body = json.dumps({"spec": variant(1).to_dict(), "tenant": "bodytenant"})
        conn.request("POST", "/jobs", body=body,
                     headers={"Content-Type": "application/json"})
        assert conn.getresponse().status == 202
        conn.close()
        depths = server.queue.depths_by_tenant()
        assert depths == {"testsuite": 1, "bodytenant": 1}

    def test_registry_shorthand_spec(self, server, client):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=5)
        conn.request("POST", "/jobs",
                     body=json.dumps({"spec": {"circuit": "rcladder20"}}),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        assert response.status == 202
        expected = JobSpec(circuit=CircuitRef(kind="registry", name="rcladder20"))
        assert payload["id"] == expected.content_hash()

    def test_malformed_spec_is_400(self, server, client):
        with pytest.raises(ServiceError) as err:
            client.submit_job({"circuit": {"kind": "registry"}})
        assert err.value.status == 400

    def test_bad_json_body_is_400(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=5)
        conn.request("POST", "/jobs", body=b"not json{",
                     headers={"Content-Type": "application/json"})
        assert conn.getresponse().status == 400
        conn.close()

    def test_unknown_endpoint_is_404(self, server, client):
        with pytest.raises(ServiceError) as err:
            err_client = ServiceClient(server.url)
            err_client._request("POST", "/nope", {})
        assert err.value.status == 404

    def test_submit_campaign_generates_members(self, server, client):
        receipt = client.submit_campaign(
            rc_spec(), {"kind": "monte_carlo", "n": 3, "seed": 5}
        )
        assert len(receipt["jobs"]) == 3
        assert receipt["submitted"] == 3 and receipt["deduped"] == 0
        rollup = client.campaign(receipt["id"])
        assert rollup["counts"] == {"pending": 3}
        # same generator resubmitted: same campaign id, all dedup
        again = client.submit_campaign(
            rc_spec(), {"kind": "monte_carlo", "n": 3, "seed": 5}
        )
        assert again["id"] == receipt["id"]
        assert again["deduped"] == 3

    def test_unknown_generator_kind_is_400(self, server, client):
        with pytest.raises(ServiceError) as err:
            client.submit_campaign(rc_spec(), {"kind": "quantum"})
        assert err.value.status == 400


class TestSubmitReplyDepths:
    """A submit reply reports the depths its own transaction committed,
    even when a node settles work between that commit and the reply."""

    @staticmethod
    def settle_one_after(server, monkeypatch, name):
        real = getattr(server.queue, name)

        def submit_then_settle(*args, **kwargs):
            out = real(*args, **kwargs)
            [job] = server.queue.claim("racer")
            server.queue.complete(job.spec_hash, "racer")
            return out

        monkeypatch.setattr(server.queue, name, submit_then_settle)

    def test_job_reply(self, server, client, monkeypatch):
        server.queue.submit(variant(9), tenant="other")
        self.settle_one_after(server, monkeypatch, "submit")
        receipt = client.submit_job(variant(0))
        assert (receipt["queue_depth"], receipt["tenant_depth"]) == (2, 1)
        assert server.queue.depth() == 1  # the racer really did settle one

    def test_campaign_reply(self, server, client, monkeypatch):
        server.queue.submit(variant(9), tenant="other")
        self.settle_one_after(server, monkeypatch, "submit_campaign")
        receipt = client.submit_campaign(
            rc_spec(), {"kind": "monte_carlo", "n": 3, "seed": 5}
        )
        assert (receipt["queue_depth"], receipt["tenant_depth"]) == (4, 3)
        assert server.queue.depth() == 3


class TestRequestBodyBound:
    @staticmethod
    def post(server, content_length, tenant):
        """POST /jobs with a raw Content-Length header and no body."""
        conn = http.client.HTTPConnection(server.host, server.port, timeout=5)
        conn.putrequest("POST", "/jobs")
        conn.putheader("X-Tenant", tenant)
        if content_length is not None:
            conn.putheader("Content-Length", content_length)
        conn.endheaders()
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        return response, payload

    @staticmethod
    def tenant_errors(server, tenant) -> int:
        # the handler meters a request after it has sent the reply
        deadline = time.monotonic() + 5
        name = f"service.tenant.{tenant}.errors"
        while time.monotonic() < deadline:
            count = server.recorder.snapshot()["counters"].get(name, 0)
            if count:
                return count
            time.sleep(0.01)
        return 0

    def test_oversize_body_is_413_and_never_read(self, server):
        response, payload = self.post(server, str(MAX_BODY_BYTES + 1), "big")
        assert response.status == 413
        assert str(MAX_BODY_BYTES) in payload["error"]
        assert response.getheader("Connection") == "close"
        assert self.tenant_errors(server, "big") == 1
        assert server.queue.counts() == {}

    @pytest.mark.parametrize("header", ["-1", "lots", "1e3"])
    def test_bad_content_length_is_400(self, server, header):
        response, payload = self.post(server, header, "odd")
        assert response.status == 400
        assert "Content-Length" in payload["error"]
        assert self.tenant_errors(server, "odd") == 1

    def test_missing_content_length_is_an_empty_body(self, server):
        response, payload = self.post(server, None, "none")
        assert response.status == 400
        assert "spec" in payload["error"]
        assert self.tenant_errors(server, "none") == 1


class TestBackpressure:
    def test_429_with_queue_depth_headers(self, tmp_path):
        with ServiceServer(tmp_path / "q", quota=2) as server:
            client = ServiceClient(server.url, tenant="small")
            client.submit_job(variant(0))
            client.submit_job(variant(1))
            with pytest.raises(Backpressure) as err:
                client.submit_job(variant(2))
            assert err.value.status == 429
            assert err.value.tenant_depth == 2
            assert err.value.queue_depth == 2
            assert err.value.retry_after > 0
            # rejection is metered globally and per tenant
            counters = server.recorder.snapshot()["counters"]
            assert counters["service.rejected.quota"] == 1
            assert counters["service.tenant.small.rejected"] == 1

    def test_campaign_quota_is_atomic_over_http(self, tmp_path):
        with ServiceServer(tmp_path / "q", quota=2) as server:
            client = ServiceClient(server.url, tenant="small")
            with pytest.raises(Backpressure):
                client.submit_campaign(
                    rc_spec(), {"kind": "monte_carlo", "n": 5, "seed": 1}
                )
            assert client.healthz()["queue"] == {}


class TestReadEndpoints:
    def test_status_and_result_lifecycle(self, server, client):
        receipt = client.submit_job(variant(0))
        # not ready yet: status readable, result is a 409
        assert client.job(receipt["id"])["status"] == "pending"
        with pytest.raises(ServiceError) as err:
            client.result(receipt["id"])
        assert err.value.status == 409
        assert err.value.payload["status"] == "pending"
        # run a farm node step against the same queue, then read back
        node = FarmNode(server.root)
        assert node.step() == 1
        status = client.job(receipt["id"])
        assert status["status"] == "done" and status["attempts"] == 1
        result = client.result(receipt["id"])
        assert result["spec_hash"] == receipt["id"]
        assert len(result["times"]) == len(result["signals"]["v(out)"])
        waveform = client.waveform(receipt["id"])
        assert waveform["id"] == receipt["id"]
        assert waveform["signals"]["v(out)"] == result["signals"]["v(out)"]

    def test_unknown_ids_are_404(self, server, client):
        for getter in (client.job, client.result, client.waveform):
            with pytest.raises(ServiceError) as err:
                getter("0" * 64)
            assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            client.campaign("feedbeef")
        assert err.value.status == 404

    def test_healthz_reports_actual_port_and_queue(self, server, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["port"] == server.port > 0
        assert health["queue"] == {}

    def test_stats_rolls_up_tenants(self, server, client):
        client.submit_job(variant(0))
        client.submit_job(variant(1), tenant="other")
        stats = client.stats()
        assert stats["depth"] == 2
        assert stats["depths_by_tenant"] == {"testsuite": 1, "other": 1}
        assert stats["tenants"]["testsuite"]["submitted"] == 1
        assert stats["tenants"]["other"]["submitted"] == 1

    def test_metrics_exposition_includes_queue_gauges(self, server, client):
        client.submit_job(variant(0))
        text = client.metrics_text()
        assert "repro_service_submitted_total 1" in text
        assert "repro_service_queue_depth 1" in text
        assert 'repro_service_queue_depth{tenant="testsuite"} 1' in text


class TestStreaming:
    def test_stream_follows_campaign_to_final_tick(self, tmp_path):
        # worker node inside the server so the campaign actually finishes
        with ServiceServer(tmp_path / "q", workers=1) as server:
            client = ServiceClient(server.url)
            receipt = client.submit_campaign(
                rc_spec(), {"kind": "monte_carlo", "n": 3, "seed": 2}
            )
            records = list(client.stream(receipt["id"], interval=0.05))
            assert records, "stream yielded nothing"
            last = records[-1]
            assert last["final"] is True
            assert last["record"] == "heartbeat"
            assert last["jobs"] == {
                "total": 3, "done": 3, "failed": 0, "cached": 0,
            }
            assert last["campaign"]["done"] is True
            assert last["campaign"]["counts"] == {"done": 3}
            # monotone sequence numbers, one final record only
            assert [r["seq"] for r in records] == list(range(len(records)))
            assert sum(r["final"] for r in records) == 1

    def test_stream_of_unknown_campaign_is_404(self, server, client):
        with pytest.raises(ServiceError) as err:
            list(client.stream("feedbeef"))
        assert err.value.status == 404


class TestPayloadHelpers:
    def test_spec_from_payload_rejects_non_objects(self):
        with pytest.raises(Exception, match="JSON object"):
            spec_from_payload([1, 2])

    def test_build_campaign_kinds(self):
        base = rc_spec()
        mc = build_campaign(base, {"kind": "monte_carlo", "n": 2, "seed": 1})
        assert len(mc.jobs) == 2
        ens = build_campaign(base, {"kind": "ensemble", "n": 2, "seed": 1})
        assert ens.generator["kind"] == "ensemble"
        # ensemble is monte carlo content-wise: same specs, same hashes
        assert [j.content_hash() for j in ens.jobs] == [
            j.content_hash() for j in mc.jobs
        ]
        sweep = build_campaign(
            base, {"kind": "param_sweep", "component": "R1", "values": [1e3, 2e3]}
        )
        assert len(sweep.jobs) == 2
        corners = build_campaign(base, {"kind": "pvt_corners", "corners": ["tt", "ss"]})
        assert len(corners.jobs) == 2
        one = build_campaign(base, {"kind": "single"})
        assert len(one.jobs) == 1
