#!/usr/bin/env python3
"""Self-tests of the benchmark itself, at a tiny graph size.

    python3 perfbench/selftest.py

Checks that every workload runs to completion, untraced and traced,
and reports exactly the metrics ``BENCHMARK.json`` names with their
units; that traced self times account for the traced wall time; and
that the reply checker catches corrupted and refused replies.  Exits
non-zero on the first failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402  (sets the one-thread environment)

#: 1/4096 of the paper's edge counts: a few hundred nodes per graph.
TINY_SCALE = 4096


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def test_every_workload_reports_every_metric() -> None:
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
           "BENCHMARK.json workloads differ from the benchmark's")
    units = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for name in WORKLOADS:
        for trace in (False, True):
            result, _ = bench.run(name, 3, 0.2, trace, scale_div=TINY_SCALE)
            expect(result["correct"] and result["failed"] == 0,
                   f"{name} trace={trace}: {result['failed']} bad replies")
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"},
                   f"{name}: result keys {sorted(result)}")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            expect(got == units[trace],
                   f"{name} trace={trace}: metrics/units differ: "
                   f"{sorted(set(got.items()) ^ set(units[trace].items()))}")
            if trace:
                share = result["metrics"]["bench.layer_sum_frac"]["value"]
                expect(abs(share - 1.0) <= 0.05,
                       f"{name}: layer self times cover {share:.3f} of "
                       "the traced wall time")
            else:
                expect(all(m["value"] > 0
                           for m in result["metrics"].values()),
                       f"{name}: an end-to-end metric read 0")
        print(f"ok   {name}: every metric present with its unit")


class _Forged:
    """A reply slot whose value was tampered with after serving."""

    def __init__(self, slot, value):
        self.request, self.status = slot.request, slot.status
        self._value = value

    def result(self):
        return self._value


def _served_slots(write_fraction: float):
    """A tiny packed (or, with writes, lsm) server replayed through
    2000 requests: ``(fresh checker, reply slots)``."""
    from check import Checker
    from inputs import load_edges
    from repro.serve import ManualClock, ServerConfig, open_server, replay
    from repro.serve import synthetic_workload
    from repro.stores import open_store
    from workloads import SERVE

    src, dst, n = load_edges("pokec", TINY_SCALE, bench.GRAPH_SEED)
    store = open_store("lsm" if write_fraction else "packed", src, dst, n)
    server = open_server(ServerConfig(store=store, **SERVE),
                         clock=ManualClock())
    traffic = synthetic_workload(2000, n, edges=(src, dst), seed=5,
                                 mean_interarrival_ns=1.0,
                                 write_fraction=write_fraction)
    return Checker(src, dst, n, as_set=bool(write_fraction)), replay(
        server, traffic)


def test_corrupted_replies_are_caught() -> None:
    from repro.serve import EdgeRequest, NeighborsRequest, WriteRequest

    for write_fraction in (0.0, 0.1):
        checker, slots = _served_slots(write_fraction)
        expect(checker.check(slots) == 0, "an honest replay was flagged")
        checker, slots = _served_slots(write_fraction)
        kinds = [NeighborsRequest, EdgeRequest]
        if write_fraction:
            kinds.append(WriteRequest)
        for kind in kinds:
            i = next(i for i, s in enumerate(slots)
                     if isinstance(s.request, kind)
                     and (kind is not NeighborsRequest
                          or s.result().shape[0]))
            value = slots[i].result()
            if kind is NeighborsRequest:
                value = value.copy()
                value[-1] += 1
            else:
                value = not value
            slots[i] = _Forged(slots[i], value)
        bad = checker.check(slots)
        expect(bad == len(kinds),
               f"{len(kinds)} corrupted replies, checker caught {bad}")
    print("ok   corrupted neighbour, edge and write replies are caught")


def test_refused_replies_count_as_failed() -> None:
    from check import Checker
    from inputs import load_edges
    from repro.serve import ServerConfig, open_server, synthetic_workload
    from repro.stores import open_store

    src, dst, n = load_edges("pokec", TINY_SCALE, bench.GRAPH_SEED)
    server = open_server(ServerConfig(
        store=open_store("packed", src, dst, n), policy="reject",
        queue_capacity=1, max_batch_size=64))
    slots = [server.submit(request) for _, request in
             synthetic_workload(50, n, edges=(src, dst), seed=5)]
    server.drain()
    checker = Checker(src, dst, n)
    checker.check(slots)
    expect(checker.failed > 0, "rejected requests were not counted")
    print(f"ok   {checker.failed} rejected replies count as failed")


def main() -> int:
    tests = [test_corrupted_replies_are_caught,
             test_refused_replies_count_as_failed,
             test_every_workload_reports_every_metric]
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            print(f"FAIL {test.__name__}: {exc}")
            return 1
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
