"""Interconnect model (substrate S2): radix-8 fat tree, NUMALink-4-like.

Latency model: ``hops(src, dst) * hop_latency`` for remote messages, a
fixed on-die crossbar latency for node-local ones.  Traffic statistics are
the basis for the paper's Figure 7 (network traffic of ticket locks) and
Figure 1 (message anatomy of a three-processor barrier).
"""

from repro.network.message import Message, MessageKind
from repro.network.topology import FatTreeTopology
from repro.network.fabric import Network, route_metrics
from repro.network.stats import TrafficStats

__all__ = [
    "Message",
    "MessageKind",
    "FatTreeTopology",
    "Network",
    "TrafficStats",
    "route_metrics",
]
