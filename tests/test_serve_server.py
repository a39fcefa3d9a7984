"""The service's front doors (repro.serve.server) and clients."""

import asyncio
import io
import json
import threading

import pytest

from repro import obs
from repro.resilience import faults
from repro.serve import (
    AsyncServeClient,
    DebugService,
    ServeClient,
    ServeConfig,
    ServeServer,
    serve_metrics_snapshot,
    serve_stdio,
)
from repro.workloads import FIGURE4_SOURCE


@pytest.fixture(autouse=True)
def _clean():
    yield
    faults.clear()
    obs.disable()
    obs.reset()


def make_service(**overrides) -> DebugService:
    return DebugService(ServeConfig(
        workers=overrides.pop("workers", 2), **overrides
    ))


class TestStdio:
    def run_lines(self, lines, **overrides):
        stdin = io.StringIO("".join(json.dumps(l) + "\n" for l in lines))
        stdout = io.StringIO()
        service = make_service(**overrides)
        summary = asyncio.run(serve_stdio(service, stdin=stdin, stdout=stdout))
        responses = [
            json.loads(line) for line in stdout.getvalue().splitlines()
        ]
        return summary, responses

    def test_one_response_line_per_request_line(self):
        summary, responses = self.run_lines([
            {"id": "a", "op": "run", "source": FIGURE4_SOURCE},
            {"id": "b", "op": "ping"},
            {"id": "c", "op": "run", "source": FIGURE4_SOURCE},
        ])
        assert summary["drained"] is True
        assert {r["id"] for r in responses} == {"a", "b", "c"}
        by_id = {r["id"]: r for r in responses}
        assert by_id["a"]["status"] == "completed"
        assert by_id["b"]["result"] == {"pong": True}
        assert summary["stats"]["submitted"] == 3

    def test_malformed_line_still_answers(self):
        stdin = io.StringIO('{"op": "run"\n')
        stdout = io.StringIO()
        summary = asyncio.run(
            serve_stdio(make_service(), stdin=stdin, stdout=stdout)
        )
        (response,) = [
            json.loads(line) for line in stdout.getvalue().splitlines()
        ]
        assert response["status"] == "failed"
        assert response["reason"] == "bad_request"
        assert summary["stats"]["failed"] == 1

    def test_stats_op_reports_metrics(self):
        obs.reset()
        obs.enable()
        _, responses = self.run_lines([
            {"id": "a", "op": "run", "source": FIGURE4_SOURCE},
            {"id": "s", "op": "stats"},
        ])
        stats = next(r for r in responses if r["id"] == "s")
        assert stats["status"] == "completed"
        assert stats["result"]["serve"]["submitted"] >= 1
        assert "counters" in stats["result"]["metrics"]


class TestSocketServer:
    def test_async_client_round_trip_and_drain(self, tmp_path):
        socket_path = str(tmp_path / "serve.sock")

        async def main():
            service = make_service()
            server = ServeServer(service, socket_path=socket_path)
            await server.start()
            runner = asyncio.ensure_future(
                server.run_until_drained(install_signals=False)
            )
            client = await AsyncServeClient(socket_path).connect()
            responses = await asyncio.gather(*(
                client.request(
                    {"id": f"j{n}", "op": "run", "source": FIGURE4_SOURCE}
                )
                for n in range(8)
            ))
            summary = (await client.request({"op": "drain"})).result
            await client.close()
            await asyncio.wait_for(runner, 10.0)
            return service, responses, summary

        service, responses, summary = asyncio.run(main())
        assert all(r.status == "completed" for r in responses)
        assert {r.id for r in responses} == {f"j{n}" for n in range(8)}
        assert summary["drained"] is True
        assert service.stats.submitted == 8
        assert service.stats.terminal() == 8

    def test_sync_client_against_a_threaded_server(self, tmp_path):
        socket_path = str(tmp_path / "serve.sock")
        ready = threading.Event()

        def serve():
            async def main():
                server = ServeServer(make_service(), socket_path=socket_path)
                await server.start()
                ready.set()
                await server.run_until_drained(install_signals=False)

            asyncio.run(main())

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert ready.wait(10.0)

        with ServeClient(socket_path, timeout_s=10.0) as client:
            assert client.ping()
            response = client.request(
                {"id": "x", "op": "run", "source": FIGURE4_SOURCE}
            )
            assert response.status == "completed"
            stats = client.stats()
            assert stats["serve"]["submitted"] == 2
            summary = client.drain()
            assert summary["drained"] is True
        thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_pipelined_requests_come_back_by_id(self, tmp_path):
        socket_path = str(tmp_path / "serve.sock")
        ready = threading.Event()

        def serve():
            async def main():
                server = ServeServer(make_service(), socket_path=socket_path)
                await server.start()
                ready.set()
                await server.run_until_drained(install_signals=False)

            asyncio.run(main())

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert ready.wait(10.0)

        with ServeClient(socket_path, timeout_s=10.0) as client:
            ids = [
                client.send(
                    {"id": f"p{n}", "op": "run", "source": FIGURE4_SOURCE}
                )
                for n in range(4)
            ]
            # collect in reverse order: the stash reorders for us
            for request_id in reversed(ids):
                assert client.recv(request_id).status == "completed"
            client.drain()
        thread.join(timeout=10.0)


class TestMetricsSnapshot:
    def test_only_serve_metrics_are_included(self):
        obs.reset()
        obs.enable()
        obs.add("serve.submitted")
        obs.add("trace.nodes")
        obs.set_gauge("serve.queue_depth", 3)
        obs.observe("serve.wait_s", 0.1, unit="s")
        obs.observe("other.latency", 9.0, unit="s")
        snapshot = serve_metrics_snapshot()
        assert snapshot["counters"] == {"serve.submitted": 1}
        assert snapshot["gauges"] == {"serve.queue_depth": 3}
        assert list(snapshot["histograms"]) == ["serve.wait_s"]
