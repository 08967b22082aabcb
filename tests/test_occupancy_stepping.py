"""Occupancy-driven stepping must change speed only, never results.

``Router.step`` visits only the occupied input VCs, ``CmpSystem.inject``
steps only live, runnable cores, the CMP warm start fills caches in bulk,
and ``DOR.route`` memoizes its per-(node, dst) answers.  The goldens below
were captured from the full-scan implementation (every VC, every core,
per-line fills, no memo) and must stay bit-identical.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CmpConfig, NetworkConfig
from repro.core.openloop import OpenLoopSimulator
from repro.core.resilience import InvariantChecker, InvariantViolation
from repro.execdriven import BENCHMARKS, TIMER_INTERVAL_3GHZ, CmpSystem
from repro.execdriven.cache import SetAssocCache
from repro.network.network import Network
from repro.network.packet import Packet
from repro.routing import DOR
from repro.topology import Mesh, Ring, Torus


def digest(arr) -> str:
    """First 16 hex chars of sha256 over the array's raw bytes."""
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def sets_digest(caches) -> str:
    """Digest of every set's keys in LRU order (oldest first), cache by cache."""
    h = hashlib.sha256()
    for cache in caches:
        for s in cache._sets:
            h.update(np.array([*s, -1], dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def fig15_config(tr: int, **kwargs) -> CmpConfig:
    """The Fig. 15 machine: Table II 4x4 mesh, 8 VCs, router delay ``tr``."""
    net = NetworkConfig(k=4, n=2, num_vcs=8, vc_buffer_size=4, router_delay=tr, seed=1)
    return CmpConfig(network=net, **kwargs)


# ---------------------------------------------------------------------------
# CMP goldens in the shape of fig15's runs
# ---------------------------------------------------------------------------
FIG15_GOLDENS = {
    ("lu", 1): (6771, 25600, 2335, 138, 0, (312, 155, 0), "e45232d862695373", "9466ee312371ae98"),
    ("lu", 4): (7675, 25600, 2335, 138, 0, (312, 155, 0), "e45232d862695373", "79a98619ae0a80af"),
    ("canneal", 1): (10768, 28224, 6260, 221, 0, (790, 462, 0), "2dab09a3178e671c", "bbef2f95ea28ca71"),
    ("canneal", 4): (12440, 28224, 6260, 221, 0, (790, 462, 0), "2dab09a3178e671c", "eceafa6cc0fa2cbe"),
}


def _check(res, golden) -> None:
    cycles, instructions, flits, l2_misses, stalls, kinds, matrix, timeline = golden
    assert res.completed is True
    assert res.cycles == cycles
    assert res.instructions == instructions
    assert res.total_flits == flits
    assert res.l2_misses == l2_misses
    assert res.mshr_stall_cycles == stalls
    assert res.requests_by_kind == dict(zip(("user", "kernel_burst", "kernel_timer"), kinds))
    assert digest(res.traffic_matrix) == matrix
    assert digest(res.timeline) == timeline


class TestCmpGoldens:
    @pytest.mark.parametrize("name,tr", sorted(FIG15_GOLDENS))
    def test_fig15_shape(self, name, tr):
        res = CmpSystem(
            BENCHMARKS[name](1500),
            fig15_config(tr),
            timer_interval=TIMER_INTERVAL_3GHZ,
            seed=1,
        ).run()
        _check(res, FIG15_GOLDENS[name, tr])

    @pytest.mark.parametrize(
        "ideal,golden,interrupts",
        [
            (False, (34588, 67824, 27600, 387, 210, (761, 481, 4278), "8275ad843bc5551d", "066b22ad25a53002"), 14),
            (True, (28977, 79024, 32905, 441, 307, (809, 454, 5318), "ff90888fb0b8eb7d", "dd9af8e65346db0e"), 13),
        ],
    )
    def test_mshr_stalls_and_timer_interrupts(self, ideal, golden, interrupts):
        # Two MSHRs and a short timer put cores in every state the live-core
        # scan skips or steps: busy, blocked on a load, stalled on a full
        # MSHR file, inside a handler, and finished with replies in flight.
        res = CmpSystem(
            BENCHMARKS["canneal"](1500),
            fig15_config(2, mshrs=2),
            timer_interval=2000,
            seed=1,
            ideal=ideal,
        ).run()
        _check(res, golden)
        assert res.interrupts == interrupts

    def test_invariants_hold_on_cmp_run(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        res = CmpSystem(
            BENCHMARKS["lu"](1500), fig15_config(4), timer_interval=TIMER_INTERVAL_3GHZ, seed=1
        ).run()
        _check(res, FIG15_GOLDENS["lu", 4])

    def test_finished_cores_leave_the_live_list(self):
        system = CmpSystem(BENCHMARKS["lu"](1500), fig15_config(1), seed=1)
        assert system._live == system.cores
        system.run()
        assert system._live == []

    @pytest.mark.parametrize(
        "name,l2",
        [
            ("blackscholes", "4267fef466239411"),
            ("lu", "a0e737caa3523d24"),
            ("canneal", "a0e737caa3523d24"),
            ("fft", "a0e737caa3523d24"),
            ("barnes", "c77caccc3f3abbbb"),
        ],
    )
    def test_warm_start_cache_contents(self, name, l2):
        system = CmpSystem(BENCHMARKS[name](1500), fig15_config(1), seed=1)
        assert sets_digest([core.l1 for core in system.cores]) == "e974e158de2fe2d3"
        assert sets_digest([tile.l2 for tile in system.tiles]) == l2
        for cache in [core.l1 for core in system.cores] + [tile.l2 for tile in system.tiles]:
            assert (cache.stats.hits, cache.stats.misses) == (0, 0)


# ---------------------------------------------------------------------------
# SetAssocCache.fill_many
# ---------------------------------------------------------------------------
class TestFillMany:
    @settings(max_examples=200, deadline=None)
    @given(
        geometry=st.sampled_from([(1, 1), (4, 4), (8, 2), (16, 4), (12, 3)]),
        prefill=st.lists(st.integers(0, 40), max_size=30),
        lines=st.lists(st.integers(0, 40), max_size=80),
    )
    def test_equals_fill_loop(self, geometry, prefill, lines):
        bulk = SetAssocCache(*geometry)
        loop = SetAssocCache(*geometry)
        for cache in (bulk, loop):
            for line in prefill:
                cache.access(line)
        stats = (bulk.stats.hits, bulk.stats.misses)
        bulk.fill_many(lines)
        for line in lines:
            loop.fill(line)
        assert [list(s) for s in bulk._sets] == [list(s) for s in loop._sets]
        assert (bulk.stats.hits, bulk.stats.misses) == stats

    def test_accepts_a_range(self):
        bulk = SetAssocCache(8, 2)
        loop = SetAssocCache(8, 2)
        bulk.fill_many(range(3, 30, 3))
        for line in range(3, 30, 3):
            loop.fill(line)
        assert [list(s) for s in bulk._sets] == [list(s) for s in loop._sets]


# ---------------------------------------------------------------------------
# DOR memo
# ---------------------------------------------------------------------------
def _packet(src: int, dst: int) -> Packet:
    return Packet(0, src, dst, 1, 0)


class TestDorMemo:
    @pytest.mark.parametrize(
        "topology,num_vcs",
        [(Mesh(8, 2), 2), (Torus(4, 2), 4), (Ring(8), 2)],
        ids=["mesh8x8", "torus4x4", "ring8"],
    )
    def test_memo_returns_the_computed_candidates(self, topology, num_vcs):
        dor = DOR(topology, num_vcs)
        nodes = range(topology.num_nodes)
        for node in nodes:
            for dst in nodes:
                expected = dor._compute(node, _packet(0, dst))
                assert dor.route(node, _packet(0, dst)) is expected
                # the second call is served from the memo
                assert dor.route(node, _packet(dst, dst)) is expected
        assert sum(c is not None for row in dor._memo for c in row) == topology.num_nodes**2

    def test_strict_dateline_never_memoizes(self):
        dor = DOR(Torus(4, 2), 2, dateline_mode="strict")
        assert dor._memo is None
        for src in range(16):
            for node in range(16):
                dor.route(node, _packet(src, 15 - node))
        assert dor._memo is None

    def test_two_phase_packets_bypass_the_memo(self):
        topo = Mesh(4, 2)
        dor = DOR(topo, 2)
        pkt = _packet(0, 15)
        pkt.intermediate = 5
        node = 0
        hops = 0
        while True:
            cands = dor.route(node, pkt)
            port = cands[0].out_port
            if port == topo.local_port:
                break
            node = topo.channel(node, port).dst
            hops += 1
        assert node == 15 and pkt.phase == 1
        assert hops == topo.min_hops(0, 5) + topo.min_hops(5, 15)
        assert dor._memo == [None] * topo.num_nodes

    def test_faulted_network_matches_golden(self):
        cfg = NetworkConfig(k=4, n=2, seed=3, faults="links:2;link:0>1@50-300")
        res = OpenLoopSimulator(cfg, warmup=200, measure=400, drain_limit=4000).run(0.1)
        assert res.num_measured == 630
        assert res.avg_latency == 7.231746031746032
        assert res.throughput == 0.09796875
        assert res.avg_hops == 3.041269841269841
        assert digest(res.latencies) == "26d7d1e6af5383fa"

    @pytest.mark.parametrize(
        "kwargs,golden",
        [
            (dict(topology="torus", num_vcs=4), (630, 7.73015873015873, 2.215873015873016, "f8bc1fea564bbc84")),
            (dict(topology="torus", k=8, n=1, num_vcs=2), (322, 7.549689440993789, 2.1490683229813663, "af52546aed376102")),
        ],
        ids=["torus4x4", "ring8"],
    )
    def test_wrapped_networks_match_golden(self, kwargs, golden):
        cfg = NetworkConfig(**{"k": 4, "n": 2, "seed": 3, **kwargs})
        res = OpenLoopSimulator(cfg, warmup=200, measure=400, drain_limit=4000).run(0.1)
        assert (res.num_measured, res.avg_latency, res.avg_hops, digest(res.latencies)) == golden


# ---------------------------------------------------------------------------
# Occupancy invariant
# ---------------------------------------------------------------------------
def _loaded_network() -> Network:
    net = Network(NetworkConfig(k=4, n=2))
    for src, dst in ((0, 15), (3, 12), (5, 10)):
        net.offer(net.make_packet(src, dst, 4))
    for _ in range(4):
        net.step()
    return net


class TestOccupancyInvariant:
    def test_loaded_network_passes(self):
        net = _loaded_network()
        assert any(r.busy for r in net.routers)
        InvariantChecker().check(net)

    def test_dropped_busy_index_detected(self):
        net = _loaded_network()
        router = next(r for r in net.routers if r.busy)
        router.busy.discard(min(router.busy))
        with pytest.raises(InvariantViolation, match="busy set"):
            InvariantChecker().check(net)

    def test_spurious_busy_index_detected(self):
        net = _loaded_network()
        router = net.routers[0]
        router.busy.add(max(set(range(len(router.ivcs))) - router.busy))
        with pytest.raises(InvariantViolation, match="busy set"):
            InvariantChecker().check(net)

    def test_inactive_router_with_flits_detected(self):
        net = _loaded_network()
        router = next(r for r in net.routers if r.busy)
        net._active_routers.discard(router.node)
        with pytest.raises(InvariantViolation, match="active set"):
            InvariantChecker().check(net)
