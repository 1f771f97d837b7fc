"""Multi-subscriber send hooks: tracer, metrics and bare hooks compose.

Regression for the single-slot ``net.on_send`` attribute the seed code
used: attaching a second observer silently replaced the first, so the
attach *order* of tracer / metrics / other send hooks decided which one
saw traffic.  ``subscribe_send`` keeps a hook list; the legacy
``on_send`` property remains for existing callers and coexists with
subscribers.
"""

import pytest

from repro.network.fabric import Network
from repro.network.message import Message, MessageKind
from repro.obs import MachineMetrics
from repro.sim.kernel import Simulator
from repro.trace import TraceRecorder


def make_net(n_nodes=4):
    sim = Simulator()
    net = Network(sim, n_nodes)
    net.attach(1, lambda msg: None)
    return sim, net


def ping(sim, net):
    net.send(Message(kind=MessageKind.GET_S, src_node=0, dst_node=1))
    sim.run()


def test_all_subscribers_see_every_send():
    sim, net = make_net()
    seen_a, seen_b, seen_c = [], [], []
    net.subscribe_send(lambda msg, hops: seen_a.append(hops))
    net.subscribe_send(lambda msg, hops: seen_b.append(hops))
    net.subscribe_send(lambda msg, hops: seen_c.append(hops))
    ping(sim, net)
    assert seen_a == seen_b == seen_c == [2]


def test_duplicate_subscribe_is_idempotent():
    sim, net = make_net()
    seen = []

    def hook(msg, hops):
        seen.append(hops)

    net.subscribe_send(hook)
    net.subscribe_send(hook)
    ping(sim, net)
    assert seen == [2]


def test_unsubscribe_removes_only_that_hook():
    sim, net = make_net()
    kept, dropped = [], []

    def keeper(msg, hops):
        kept.append(hops)

    def goner(msg, hops):
        dropped.append(hops)

    net.subscribe_send(keeper)
    net.subscribe_send(goner)
    net.unsubscribe_send(goner)
    net.unsubscribe_send(goner)          # second removal is a no-op
    ping(sim, net)
    assert kept == [2] and dropped == []


def test_legacy_on_send_coexists_with_subscribers():
    sim, net = make_net()
    via_property, via_subscribe = [], []
    net.subscribe_send(lambda msg, hops: via_subscribe.append(hops))
    net.on_send = lambda msg, hops: via_property.append(hops)
    ping(sim, net)
    assert via_property == [2] and via_subscribe == [2]


def test_legacy_reassignment_replaces_only_its_own_hook():
    sim, net = make_net()
    first, second, other = [], [], []
    net.subscribe_send(lambda msg, hops: other.append(hops))
    net.on_send = lambda msg, hops: first.append(hops)
    net.on_send = lambda msg, hops: second.append(hops)
    ping(sim, net)
    assert first == [] and second == [2] and other == [2]
    net.on_send = None                    # clears the legacy slot only
    ping(sim, net)
    assert second == [2] and other == [2, 2]


@pytest.mark.parametrize("order", ["tracer-first", "metrics-first"])
def test_tracer_profiler_metrics_compose_in_any_order(machine8, order):
    """The original bug: whichever observer attached last won."""
    hops_seen = []

    def hook(msg, hops):
        hops_seen.append(hops)

    if order == "tracer-first":
        tracer = TraceRecorder.attach(machine8)
        machine8.net.subscribe_send(hook)
        obs = MachineMetrics.attach(machine8)
    else:
        obs = MachineMetrics.attach(machine8)
        machine8.net.subscribe_send(hook)
        tracer = TraceRecorder.attach(machine8)
    var = machine8.alloc("v", home_node=1)

    def thread(proc):
        yield from proc.load(var.addr)
        yield from proc.amo_inc(var.addr)

    machine8.run_threads(thread)
    assert tracer.instants                         # tracer saw messages
    assert obs.msg_hops.count > 0                  # metrics saw messages
    assert hops_seen                               # bare hook saw messages
