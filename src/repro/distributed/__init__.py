"""Distributed campaigns: a coordinator and a work-stealing worker fleet.

PR 2 sharded a campaign over one host's process pool; this package
generalizes the same shard/sidecar-merge design across a *transport
seam* so the fleet can span processes that are not our pool's children
— today separate Python processes on a socket (``yinyang worker
--connect HOST:PORT``), SSH-launched hosts next.

The pieces:

- :mod:`~repro.distributed.protocol` — the length-prefixed JSON (or
  msgpack, when available) frame format every coordinator/worker pair
  speaks, plus the wire codecs for :class:`~repro.core.parallel.ShardTask`
  and worker result payloads;
- :mod:`~repro.distributed.worker` — the worker side: connect, receive
  the campaign spec once, then pull leases and run them through the
  *exact* worker path process mode uses (:func:`repro.core.parallel._run_shard`
  — triage, containment, heartbeats and progress checkpoints all
  intact), shipping reports + telemetry snapshots back as frames;
- :mod:`~repro.distributed.endpoint` — the coordinator side of the
  transport: :class:`~repro.distributed.endpoint.TcpFleet` listens,
  hands queued leases to whichever worker asks first (pull-based work
  stealing, tie-broken by a seeded RNG so distinct steal orders are
  reproducible), and translates disconnects into the supervisor's
  retry vocabulary;
- :mod:`~repro.distributed.coordinator` — the campaign plan owner:
  cells become iteration-range leases driven to completion by the
  PR 6 :class:`~repro.robustness.supervisor.Supervisor` (retry/backoff,
  poison bisection) over any backend — the in-process pool or a socket
  fleet;
- :mod:`~repro.distributed.netchaos` — seeded network fault injection
  (drop/delay/duplicate/disconnect) extending the chaos layer across
  the wire.

The headline invariant is inherited, not re-proven per backend:
deterministic-mode journals are byte-identical for any fleet shape —
serial, thread, process, tcp, any worker count, any steal order (see
``tests/test_distributed.py``).
"""

from repro.distributed.coordinator import Coordinator
from repro.distributed.endpoint import FleetBroken, TcpFleet, WorkerDisconnected
from repro.distributed.netchaos import NetChaos, parse_net_chaos
from repro.distributed.protocol import (
    FrameDecoder,
    FrameStream,
    ProtocolError,
    encode_frame,
)
from repro.distributed.worker import run_worker

__all__ = [
    "Coordinator",
    "FleetBroken",
    "FrameDecoder",
    "FrameStream",
    "NetChaos",
    "ProtocolError",
    "TcpFleet",
    "WorkerDisconnected",
    "encode_frame",
    "parse_net_chaos",
    "run_worker",
]
