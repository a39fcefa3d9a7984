"""Concurrent use of one BatchAnswerService from asyncio tasks.

Many sessions share one store through one service. These tests pin
down what concurrent callers on one asyncio loop rely on: batches
from concurrent tasks don't corrupt each other's outcomes, per-session
lookups stay isolated, and the counters still add up exactly.
"""

import asyncio

import pytest

from repro import obs
from repro.pascal.values import ArrayValue
from repro.store import BatchAnswerService, BatchQuery, ShardedReportStore
from repro.tgen.lookup import LookupStatus
from repro.tgen.reports import TestReport, Verdict
from repro.workloads.arrsum_spec import arrsum_frame_selector, arrsum_spec


@pytest.fixture(autouse=True)
def _clean_obs():
    yield
    obs.disable()
    obs.reset()


def arrsum_query(values):
    return BatchQuery(
        "arrsum", {"a": ArrayValue.from_values(values), "n": len(values)}
    )


@pytest.fixture()
def service(tmp_path):
    store = ShardedReportStore(tmp_path / "db", shards=4)
    store.add(TestReport(
        unit="arrsum", frame_key=("two", "positive", "small"),
        verdict=Verdict.PASS,
    ))
    store.add(TestReport(
        unit="arrsum", frame_key=("more", "mixed", "large"),
        verdict=Verdict.FAIL,
    ))
    store.flush()
    return BatchAnswerService(
        store, specs=[arrsum_spec()],
        selectors={"arrsum": arrsum_frame_selector},
    )


class TestConcurrentBatches:
    def test_many_tasks_one_service_outcomes_stay_ordered(self, service):
        """Each task's outcomes must match its own queries — concurrent
        batches on one service never bleed into each other."""

        async def session(n: int):
            # each session interleaves a verified, an unknown, and a
            # failed query, tagged by position
            queries = [
                arrsum_query([1, 2]),            # VERIFIED
                BatchQuery(f"mystery{n}", {}),   # NO_SPEC
                arrsum_query([-100, 2, 100]),    # FAILED_REPORT
            ]
            return await asyncio.to_thread(service.answer_batch, queries)

        async def main():
            return await asyncio.gather(*(session(n) for n in range(16)))

        for outcomes in asyncio.run(main()):
            assert [outcome.status for outcome in outcomes] == [
                LookupStatus.VERIFIED,
                LookupStatus.NO_SPEC,
                LookupStatus.FAILED_REPORT,
            ]

    def test_counters_add_up_exactly_across_tasks(self, service):
        obs.reset()
        obs.enable()

        async def session(n: int):
            return await asyncio.to_thread(
                service.answer_batch,
                [arrsum_query([1, 2]), BatchQuery(f"m{n}", {})],
            )

        async def main():
            await asyncio.gather(*(session(n) for n in range(10)))

        asyncio.run(main())
        stats = service.stats.as_dict()
        assert stats["batches"] == 10
        assert stats["queries"] == 20
        assert stats["hits"] == 10
        assert stats["misses"] == 10
        assert stats["conflicts"] == 0
        assert stats["queries"] == (
            stats["hits"] + stats["misses"] + stats["conflicts"]
        )
        counters = obs.snapshot(include_cache=False)["counters"]
        assert counters["store.batch.queries"] == 20
        assert counters["store.batch.batches"] == 10

    def test_session_lookups_stay_isolated(self, service):
        """Two concurrent per-session lookups share the store but not
        session state: each session's hit accounting is its own."""

        async def session():
            lookup = service.session_lookup()

            def ask():
                outcome = lookup.consult(
                    "arrsum",
                    {"a": ArrayValue.from_values([1, 2]), "n": 2},
                )
                return lookup, outcome

            return await asyncio.to_thread(ask)

        async def main():
            return await asyncio.gather(*(session() for _ in range(8)))

        results = asyncio.run(main())
        lookups = [lookup for lookup, _ in results]
        assert len({id(lookup) for lookup in lookups}) == 8
        for lookup, outcome in results:
            assert outcome.status == LookupStatus.VERIFIED

    def test_mixed_batch_and_session_traffic(self, service):
        """Batches and per-session lookups interleave on one service
        without deadlock or miscounts (the serve worker's actual mix)."""

        async def batch_task():
            return await asyncio.to_thread(
                service.answer_batch, [arrsum_query([1, 2])]
            )

        async def lookup_task():
            lookup = service.session_lookup()
            return await asyncio.to_thread(
                lookup.consult,
                "arrsum",
                {"a": ArrayValue.from_values([1, 2]), "n": 2},
            )

        async def main():
            tasks = []
            for _ in range(6):
                tasks.append(batch_task())
                tasks.append(lookup_task())
            return await asyncio.gather(*tasks)

        results = asyncio.run(main())
        assert len(results) == 12
        assert service.stats.batches == 6
        assert service.stats.queries == 6
