"""Cycle-level input-queued virtual-channel router.

Pipeline model: a flit arriving at cycle ``t`` is eligible for switch
allocation at ``t + tr`` (``tr`` = the paper's router delay), so the per-hop
cost is ``tr + link_delay`` — which reproduces the paper's observation that
raising tr from 1 to 2/4 scales zero-load latency by exactly 1.5×/2.5× on a
1-cycle-link mesh.

Per cycle, for each input VC whose head flit has cleared the pipeline:

1. **RC** — head flits compute their route candidates once per hop.
2. **VA** — the head flit claims a downstream VC: among candidate
   (port, VC-class) options it takes the free VC with the most credits
   (this is what makes MA adaptive); escape candidates are tried only if no
   adaptive VC is free.  Allocation is non-atomic: a VC whose previous
   packet's tail has departed upstream may be re-claimed while its buffer
   drains, as in Garnet.
3. **SA** — input VCs with an allocated VC and downstream credit (ejection
   needs neither) request the switch; one arbiter per output port
   (round-robin, age-based, or the class-aware priority/weighted family —
   the packet's ``traffic_class`` rides through the VC buffers to here)
   picks winners, under one-flit-per-input-port and
   one-flit-per-output-port crossbar constraints.
4. **ST** — winners traverse: credits decrement, the freed input-buffer slot
   returns a credit upstream, tail flits release the VC.

All state mutation goes through the owning :class:`Network`'s event buckets,
so routers never observe partially-updated same-cycle state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..routing.base import RoutingAlgorithm
from .arbiters import build_arbiter
from .vc import InputVC

if TYPE_CHECKING:  # pragma: no cover
    from .network import Network

__all__ = ["Router"]


class Router:
    """One router of the network; owned and stepped by :class:`Network`."""

    __slots__ = (
        "node",
        "network",
        "routing",
        "tr",
        "num_vcs",
        "local_port",
        "num_ports",
        "ivcs",
        "busy",
        "credits",
        "vc_owner",
        "out_channels",
        "arbiters",
        "fault_mask",
        "_reqs",
        "_notify_grant",
    )

    def __init__(
        self,
        node: int,
        network: "Network",
        routing: RoutingAlgorithm,
        *,
        num_vcs: int,
        buf_size: int,
        router_delay: int,
        arbitration: str,
        classes: "tuple | None" = None,
    ):
        topo = network.topology
        self.node = node
        self.network = network
        self.routing = routing
        self.tr = router_delay
        self.num_vcs = num_vcs
        self.local_port = topo.local_port
        self.num_ports = topo.ports_per_router
        nivcs = self.num_ports * num_vcs
        self.ivcs = [
            InputVC(i, i // num_vcs, i % num_vcs) for i in range(nivcs)
        ]
        self.busy: set[int] = set()
        # Per output port: channel (None for missing ports and the ejection
        # port), downstream credits, downstream-VC ownership, arbiter.
        self.out_channels = [
            topo.channel(node, p) if p != self.local_port else None
            for p in range(self.num_ports)
        ]
        self.credits = [
            [buf_size] * num_vcs if self.out_channels[p] is not None else None
            for p in range(self.num_ports)
        ]
        self.vc_owner = [
            [None] * num_vcs if self.out_channels[p] is not None else None
            for p in range(self.num_ports)
        ]
        self.arbiters = [
            build_arbiter(arbitration, nivcs, classes) for _ in range(self.num_ports)
        ]
        # Only the weighted arbiter carries grant-advanced state; skipping
        # the granted() call otherwise keeps the default hot path unchanged.
        self._notify_grant = arbitration == "weighted"
        #: bitmask of currently-faulted output ports (maintained by the
        #: network's FaultState; 0 on a healthy router)
        self.fault_mask = 0
        self._reqs: list[list] = [[] for _ in range(self.num_ports)]

    # -- buffer plumbing (called by Network) --------------------------------
    def enqueue(self, in_port: int, vc: int, packet, fidx: int, arrive: int) -> None:
        """Buffer a flit arriving at ``arrive`` on (in_port, vc)."""
        idx = in_port * self.num_vcs + vc
        self.ivcs[idx].fifo.append((packet, fidx, arrive + self.tr))
        self.busy.add(idx)
        self.network._active_routers.add(self.node)

    def free_space(self, in_port: int, vc: int, buf_size: int) -> int:
        """Free flit slots in the (in_port, vc) buffer (injection-side check)."""
        return buf_size - len(self.ivcs[in_port * self.num_vcs + vc].fifo)

    # -- VC allocation -------------------------------------------------------
    def _try_alloc(self, ivc: InputVC) -> bool:
        """Attempt VC allocation for the routed head flit in ``ivc``."""
        local = self.local_port
        fm = self.fault_mask
        best_port = -1
        best_vc = -1
        best_credit = -1
        for cand in ivc.candidates:
            op = cand.out_port
            if op == local:
                ivc.out_port = local
                ivc.out_vc = -1
                ivc.candidates = None
                return True
            if cand.escape:
                continue  # escape paths tried only in the fallback pass
            if fm and fm >> op & 1:
                continue  # faulted channel: never claim its VCs
            owners = self.vc_owner[op]
            creds = self.credits[op]
            for vc in cand.vcs:
                if owners[vc] is None and creds[vc] > best_credit:
                    best_credit = creds[vc]
                    best_port = op
                    best_vc = vc
        if best_port < 0:
            for cand in ivc.candidates:
                if not cand.escape:
                    continue
                op = cand.out_port
                if fm and fm >> op & 1:
                    continue
                owners = self.vc_owner[op]
                creds = self.credits[op]
                for vc in cand.vcs:
                    if owners[vc] is None and creds[vc] > best_credit:
                        best_credit = creds[vc]
                        best_port = op
                        best_vc = vc
        if best_port < 0:
            return False
        ivc.out_port = best_port
        ivc.out_vc = best_vc
        ivc.candidates = None
        self.vc_owner[best_port][best_vc] = ivc
        return True

    # -- main per-cycle work --------------------------------------------------
    def step(self, now: int) -> None:
        """RC + VA + SA + ST for this router at cycle ``now``."""
        ivcs = self.ivcs
        reqs = self._reqs
        local = self.local_port
        fm = self.fault_mask
        fv = self.network._fault_version
        active_ports = []
        # RC / VA / SA-request gathering over the occupied input VCs only:
        # ``self.busy`` holds exactly the non-empty FIFOs, and ascending
        # index order keeps the arbiters' request order of a full scan.
        for idx in sorted(self.busy):
            ivc = ivcs[idx]
            head = ivc.fifo[0]
            if head[2] > now:
                continue
            if ivc.out_port < 0:
                if ivc.candidates is None or ivc.route_version != fv:
                    # RC: head flits compute their candidates once per hop,
                    # again whenever the fault set changed under them.
                    ivc.candidates = self.routing.route(self.node, head[0])
                    ivc.route_version = fv
                if not self._try_alloc(ivc):
                    continue
            op = ivc.out_port
            if op != local and (
                self.credits[op][ivc.out_vc] <= 0 or (fm and fm >> op & 1)
            ):
                continue
            if not reqs[op]:
                active_ports.append(op)
            reqs[op].append((idx, head[0]))
        if not active_ports:
            return
        # SA arbitration + ST, one winner per output port, one grant per
        # input port per cycle.
        used_inputs = 0  # bitmask over input ports
        num_vcs = self.num_vcs
        notify = self._notify_grant
        for op in active_ports:
            requests = reqs[op]
            while requests:
                winner = (
                    requests[0] if len(requests) == 1 else self.arbiters[op].pick(requests)
                )
                in_port_bit = 1 << (winner[0] // num_vcs)
                if used_inputs & in_port_bit:
                    requests.remove(winner)
                    continue
                used_inputs |= in_port_bit
                self._traverse(winner[0], now)
                if notify:
                    self.arbiters[op].granted(winner[1])
                break
            reqs[op].clear()

    def _traverse(self, idx: int, now: int) -> None:
        """ST: move the head-of-VC flit of input VC ``idx`` out of the router."""
        ivc = self.ivcs[idx]
        pkt, fidx, _ = ivc.fifo.popleft()
        if not ivc.fifo:
            self.busy.discard(idx)
        net = self.network
        in_port = ivc.in_port
        if in_port != self.local_port:
            # The freed buffer slot returns one credit upstream.
            net.send_credit(self.node, in_port, ivc.vc, now)
        op = ivc.out_port
        is_tail = fidx == pkt.size - 1
        if op == self.local_port:
            net.count_ejection(self.node)
            if is_tail:
                pkt.deliver_time = now
                ivc.reset_route()
                net.on_delivered(pkt)
        else:
            ovc = ivc.out_vc
            self.credits[op][ovc] -= 1
            ch = self.out_channels[op]
            if fidx == 0:
                pkt.hops += 1
            net.send_flit(ch, ovc, pkt, fidx, now)
            if is_tail:
                self.vc_owner[op][ovc] = None
                ivc.reset_route()

    # -- introspection ---------------------------------------------------------
    def buffered_flits(self) -> int:
        """Total flits currently buffered in this router."""
        return sum(len(ivc.fifo) for ivc in self.ivcs)
