"""End-to-end tests of the HTTP service: server + client over a socket.

The acceptance path of the service subsystem: submit over HTTP, stream
the NDJSON events live, fetch a result identical to a direct
:func:`repro.flow.run_flow`, hit the cache on re-submission with a
byte-identical document, and resume a killed search from its checkpoint.
"""

import json
import urllib.request

import pytest

from repro.benchgen import load_tiny
from repro.flow import FlowConfig, flow_config_to_dict, run_flow
from repro.io import (
    assignment_to_dict,
    design_to_dict,
    floorplan_to_dict,
)
from repro.service import (
    FloorplanService,
    ServiceClient,
    ServiceError,
)
from repro.service.jobs import TEST_EXIT_ENV


@pytest.fixture(scope="module")
def design():
    return load_tiny(die_count=4, signal_count=16)


@pytest.fixture(scope="module")
def direct(design):
    return run_flow(design, FlowConfig())


@pytest.fixture()
def service(tmp_path):
    with FloorplanService(tmp_path, port=0, max_workers=1) as svc:
        yield svc


@pytest.fixture()
def client(service):
    return ServiceClient(service.url)


class TestEndpoints:
    def test_healthz(self, client):
        assert client.health() == {"ok": True}

    def test_stats_shape(self, client):
        stats = client.stats()
        assert stats["workers"] == 1
        assert "cache" in stats and "jobs" in stats

    def test_unknown_endpoint_404(self, client):
        with pytest.raises(ServiceError) as err:
            client._request("/nope")
        assert err.value.status == 404

    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.status("missing00000")
        assert err.value.status == 404

    def test_invalid_submission_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit({"schema": 1, "nonsense": True})
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            client._request("/jobs", method="POST", body={})
        assert err.value.status == 400

    def test_result_before_done_409(self, client, design):
        view = client.submit(design_to_dict(design))
        try:
            client.result(view["id"])
        except ServiceError as err:
            assert err.status == 409
        client.wait(view["id"], timeout_s=120)

    def test_root_paths_404(self, service):
        req = urllib.request.Request(service.url + "/")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 404


class TestMalformedRequests:
    def test_malformed_json_body_is_400_json(self, service):
        req = urllib.request.Request(
            service.url + "/api/v1/jobs",
            data=b"{not json at all",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400
        body = json.loads(err.value.read())
        assert "error" in body and "JSON" in body["error"]

    def test_oversize_body_is_400_not_a_hang(self, service):
        # Claim a body past the cap; the server must answer 400 from the
        # headers alone instead of buffering 33 MiB.
        import http.client

        conn = http.client.HTTPConnection(
            service.host, service.port, timeout=10
        )
        try:
            conn.putrequest("POST", "/api/v1/jobs")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(33 * 1024 * 1024))
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
            body = json.loads(resp.read())
            assert "limit" in body["error"]
        finally:
            conn.close()

    def test_bad_content_length_is_400(self, service):
        import http.client

        conn = http.client.HTTPConnection(
            service.host, service.port, timeout=10
        )
        try:
            conn.putrequest("POST", "/api/v1/jobs")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", "banana")
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
        finally:
            conn.close()

    def test_lint_rejection_carries_diagnostics(self, client, design):
        # A constructible but infeasible design: the linter's findings
        # must come back in the 400 body, machine-readable.
        bad = design_to_dict(design)
        bad["dies"][0]["width"] = 10.0 * bad["interposer"]["width"]
        with pytest.raises(ServiceError) as err:
            client.submit(bad)
        assert err.value.status == 400
        assert "lint" in str(err.value)
        diags = getattr(err.value, "diagnostics", None)
        assert isinstance(diags, list) and diags
        assert all(
            {"code", "severity", "where", "message"} <= set(d) for d in diags
        )
        assert any(d["code"] == "fit.die-oversize" for d in diags)

    def test_int_past_double_range_is_400(self, client, design):
        # float() overflows on these ints; the linter must report them,
        # so the server answers 400 instead of a 500 traceback.
        bad = design_to_dict(design)
        bad["dies"][0]["width"] = 10**400
        bad["interposer"]["tsvs"]["x0"] = -(10**400)
        with pytest.raises(ServiceError) as err:
            client.submit(bad)
        assert err.value.status == 400
        found = {(d["code"], d["where"]) for d in err.value.diagnostics}
        assert ("geometry.nonfinite", "dies[d1].width") in found
        assert ("geometry.nonfinite", "interposer.tsvs.x0") in found

    def test_corrupt_result_on_disk_is_500_json(self, service, client):
        small = load_tiny(die_count=3, signal_count=6)
        view = client.submit(design_to_dict(small))
        client.wait(view["id"], timeout_s=120)
        result_path = service.manager.jobs_dir / view["id"] / "result.json"
        result_path.write_text("{torn")
        with pytest.raises(ServiceError) as err:
            client.result(view["id"])
        assert err.value.status == 500


class TestSubmitStreamFetch:
    def test_e2e_identity_and_cache(self, client, design, direct):
        # Submit, follow the live stream to completion.
        view = client.submit(
            design_to_dict(design),
            config=flow_config_to_dict(FlowConfig()),
        )
        events = list(client.stream_events(view["id"]))
        types = {e["type"] for e in events}
        assert "state" in types and "incumbent" in types
        final_states = [
            e["state"] for e in events if e["type"] == "state"
        ]
        assert final_states[-1] == "DONE"

        # The fetched result is the direct run_flow solution, exactly.
        result = client.result(view["id"])
        assert result["est_wl"] == direct.floorplan_result.est_wl
        assert result["twl"] == direct.twl
        assert result["floorplan"] == json.loads(
            json.dumps(floorplan_to_dict(direct.floorplan))
        )
        assert result["assignment"] == json.loads(
            json.dumps(assignment_to_dict(direct.assignment))
        )

        # Re-submission: instantly DONE from cache, byte-identical body.
        again = client.submit(
            design_to_dict(design),
            config=flow_config_to_dict(FlowConfig()),
        )
        assert again["state"] == "DONE"
        assert again["cached"] is True
        assert again["attempts"] == 0  # no search process ever ran
        result2 = client.result(again["id"])
        assert json.dumps(result2, sort_keys=True) == json.dumps(
            result, sort_keys=True
        )
        assert client.stats()["cache"]["hits"] >= 1

        # The cached job's stream is already closed out.
        cached_events = list(client.stream_events(again["id"]))
        assert [e["type"] for e in cached_events] == ["state"]
        assert cached_events[0]["cached"] is True

    def test_report_and_dashboard(self, client, design):
        view = client.submit(design_to_dict(design))
        client.wait(view["id"], timeout_s=120)
        report = client.report(view["id"])
        assert report["kind"] == "repro.run_report"
        html = client.dashboard(view["id"])
        assert "<html" in html

    def test_cancel_running_job(self, client):
        # 5 dies enumerate long enough to observe and cancel.
        big = load_tiny(die_count=5, signal_count=20)
        view = client.submit(design_to_dict(big))
        final = None
        import time

        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            state = client.status(view["id"])["state"]
            if state == "RUNNING":
                break
            time.sleep(0.05)
        client.cancel(view["id"])
        final = client.wait(view["id"], timeout_s=30)
        assert final["state"] == "CANCELLED"

    def test_list_jobs(self, client, design):
        view = client.submit(design_to_dict(design))
        client.wait(view["id"], timeout_s=120)
        jobs = client.list_jobs()
        assert view["id"] in {j["id"] for j in jobs}


class TestKillAndResume:
    def test_killed_search_resumes_to_identical_result(
        self, tmp_path, design, direct, monkeypatch
    ):
        # The child process exits hard mid-search (after 2 checkpointed
        # shards); the server requeues it and the resumed run must land
        # on the serial-identical result.
        monkeypatch.setenv(TEST_EXIT_ENV, "2")
        with FloorplanService(tmp_path, port=0, max_workers=1) as svc:
            client = ServiceClient(svc.url)
            view = client.submit(design_to_dict(design))
            final = client.wait(view["id"], timeout_s=180)
            assert final["state"] == "DONE", final
            assert final["attempts"] == 2
            events = list(client.stream_events(view["id"]))
            assert any(e["type"] == "retry" for e in events)
            result = client.result(view["id"])
            assert result["est_wl"] == direct.floorplan_result.est_wl
            assert result["twl"] == direct.twl
            assert result["floorplan"] == json.loads(
                json.dumps(floorplan_to_dict(direct.floorplan))
            )

    def test_server_restart_resumes_persisted_jobs(
        self, tmp_path, design, direct, monkeypatch
    ):
        # First server: job crashes once (checkpointing 2 shards), and
        # the server dies before the retry can run.
        monkeypatch.setenv(TEST_EXIT_ENV, "2")
        svc = FloorplanService(tmp_path, port=0, max_workers=1)
        svc.start()
        client = ServiceClient(svc.url)
        view = client.submit(design_to_dict(design))
        import time

        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if (tmp_path / "jobs" / view["id"] / "checkpoint.json").exists():
                break
            time.sleep(0.05)
        svc.close()  # terminates the child mid- or post-crash
        monkeypatch.delenv(TEST_EXIT_ENV)

        # Second server over the same data dir: the job is requeued and
        # resumes from whatever the checkpoint captured.
        with FloorplanService(tmp_path, port=0, max_workers=1) as svc2:
            client2 = ServiceClient(svc2.url)
            final = client2.wait(view["id"], timeout_s=180)
            assert final["state"] == "DONE", final
            result = client2.result(view["id"])
            assert result["est_wl"] == direct.floorplan_result.est_wl
            assert result["twl"] == direct.twl
