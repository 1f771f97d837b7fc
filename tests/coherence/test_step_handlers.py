"""Process-free coherence handlers (step objects, see repro.sim.step).

On the reference backend an INVALIDATE delivery and a GET_S run as step
objects, not as spawned processes.  These tests pin that, the 3-hop
GET_S hand-off to its coroutine tail, error propagation, and that the
generator twins the compiled core falls back to dispatch exactly the
events the step objects do.
"""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.coherence.client import CacheController
from repro.coherence.directory import DirState
from repro.coherence.protocol import AckLatch, HomeEngine, _GetS
from repro.config.mechanism import Mechanism
from repro.config.parameters import SystemConfig
from repro.core.machine import Machine
from repro.mem.address import line_base
from repro.network.message import Message, MessageKind
from repro.sim.kernel import Simulator
from repro.sim.primitives import Signal
from repro.workloads.locks import run_lock_workload


def _dir_entry(machine, var):
    engine = machine.hubs[var.home_node].home_engine
    return engine.directory.entry(line_base(var.addr))


def _count_spawns(monkeypatch):
    calls = []
    spawn = Simulator.spawn

    def counting(sim, gen, name=""):
        calls.append(name)
        return spawn(sim, gen, name)

    monkeypatch.setattr(Simulator, "spawn", counting)
    return calls


def test_invalidate_and_clean_get_s_spawn_no_process(monkeypatch):
    machine = Machine(SystemConfig.table1(4))
    var = machine.alloc("v", home_node=1)
    machine.poke(var.addr, 77)

    def reader(proc):
        return (yield from proc.load(var.addr))

    assert machine.run_threads(reader, cpus=[0]) == [77]
    spawns = _count_spawns(monkeypatch)

    # a clean GET_S from cpu 3 and an INVALIDATE of cpu 0's copy, both
    # delivered straight to the hubs
    reply = Signal()
    machine.hubs[1].receive(Message(
        MessageKind.GET_S, src_node=1, dst_node=1, addr=var.addr,
        reply_to=reply, requester=3))
    latch = AckLatch(1)
    machine.hubs[0].receive(Message(
        MessageKind.INVALIDATE, src_node=1, dst_node=0, addr=var.addr,
        payload=latch, dst_cpu=0))
    machine.sim.run()

    assert spawns == []
    assert reply.fired and reply.value.kind is MessageKind.DATA_S
    assert reply.value.payload[var.addr] == 77
    assert latch.signal.fired
    assert machine.cpus[0].controller.l2.probe(var.addr) is None
    ent = _dir_entry(machine, var)
    assert ent.state is DirState.SHARED
    assert 3 in ent.sharers
    assert not ent.busy.busy


@pytest.mark.parametrize("backend", ["reference", "accel"])
def test_exclusive_get_s_takes_3hop_tail(backend):
    machine = Machine(SystemConfig.table1(4, kernel_backend=backend))
    var = machine.alloc("v", home_node=0)

    def writer(proc):
        yield from proc.store(var.addr, 99)

    machine.run_threads(writer, cpus=[3])
    ent = _dir_entry(machine, var)
    assert ent.state is DirState.EXCLUSIVE and ent.owner == 3
    interventions = machine.hubs[0].home_engine.interventions_sent

    def reader(proc):
        return (yield from proc.load(var.addr))

    assert machine.run_threads(reader, cpus=[1]) == [99]
    assert machine.hubs[0].home_engine.interventions_sent \
        == interventions + 1
    assert ent.state is DirState.SHARED
    assert ent.owner is None
    assert ent.sharers == {1, 3}
    assert not ent.busy.busy
    assert not any("get_s_owned" in proc.name
                   for proc in machine.sim.active_processes)
    machine.check_coherence_invariants()


def test_error_inside_step_object_propagates(monkeypatch):
    machine = Machine(SystemConfig.table1(4))
    var = machine.alloc("v", home_node=1)

    def boom(cache, addr):
        raise RuntimeError("invalidate failed")

    monkeypatch.setattr(SetAssociativeCache, "invalidate", boom)
    machine.hubs[0].receive(Message(
        MessageKind.INVALIDATE, src_node=1, dst_node=0, addr=var.addr,
        payload=AckLatch(1), dst_cpu=0))
    with pytest.raises(RuntimeError, match="invalidate failed"):
        machine.sim.run()


def _lock_outcome(mechanism):
    res = run_lock_workload(8, mechanism, acquisitions_per_cpu=2)
    return (res.total_cycles, res.events_dispatched,
            res.traffic.total_messages)


@pytest.mark.parametrize("mechanism", [Mechanism.LLSC, Mechanism.MAO])
def test_generator_twins_dispatch_the_same_events(monkeypatch, mechanism):
    """Deliveries routed through the yieldable generator twins (each a
    process yielding the step object) match the bare step objects
    event for event — 3-hop GET_S tails included."""
    want = _lock_outcome(mechanism)
    owned = []
    tail = HomeEngine._get_s_owned_tail

    def counting_tail(engine, msg, ent):
        owned.append(msg.addr)
        return tail(engine, msg, ent)

    monkeypatch.setattr(
        CacheController, "on_invalidate",
        lambda ctrl, msg: ctrl.sim.spawn(ctrl._do_invalidate(msg)))
    monkeypatch.setattr(
        HomeEngine, "_start_get_s",
        lambda eng, msg: eng.sim.spawn(eng._serve_get_s(msg)))
    monkeypatch.setattr(HomeEngine, "_get_s_owned_tail", counting_tail)
    assert _lock_outcome(mechanism) == want
    if mechanism is Mechanism.LLSC:
        assert owned, "no 3-hop GET_S exercised"


def _deliver(machine, var, twin, handler):
    """Deliver one message to its handler — the step object, or its
    generator twin in a spawned process — and run to quiescence."""
    engine = machine.hubs[var.home_node].home_engine
    ctrl = machine.cpus[0].controller
    reply = Signal()
    get_s = Message(MessageKind.GET_S, src_node=1, dst_node=var.home_node,
                    addr=var.addr, reply_to=reply, requester=2)
    proc = None
    if handler == "invalidate":
        msg = Message(MessageKind.INVALIDATE, src_node=1, dst_node=0,
                      addr=var.addr, payload=AckLatch(1), dst_cpu=0)
        if twin:
            proc = machine.sim.spawn(ctrl._do_invalidate(msg))
        else:
            ctrl.on_invalidate(msg)
    elif handler == "read_fill":
        words = {var.addr: 5}
        if twin:
            proc = machine.sim.spawn(engine._finish_clean_read(get_s, words))
        else:
            _GetS(engine, get_s, words).start()
    elif twin:
        proc = machine.sim.spawn(engine._serve_get_s(get_s))
    else:
        engine._start_get_s(get_s)
    machine.sim.run()
    assert reply.fired or handler == "invalidate"
    assert proc is None or proc.done
    ent = _dir_entry(machine, var)
    return (machine.sim.now, machine.sim.events_dispatched,
            machine.net.stats.total_messages, ent.state, ent.sharer_mask,
            ent.busy.busy)


@pytest.mark.parametrize("handler", ["invalidate", "get_s_clean",
                                     "get_s_owned", "read_fill"])
def test_generator_twin_matches_step_object(handler):
    """Each generator twin runs its step object inside the spawned
    process, finishes, and dispatches exactly the step object's events."""
    outcomes = []
    for twin in (False, True):
        machine = Machine(SystemConfig.table1(4))
        var = machine.alloc("v", home_node=1)

        def warm(proc):
            if handler == "get_s_owned":
                yield from proc.store(var.addr, 99)
            else:
                yield from proc.load(var.addr)

        machine.run_threads(warm, cpus=[0])
        outcomes.append(_deliver(machine, var, twin, handler))
    assert outcomes[0] == outcomes[1]
    if handler == "get_s_owned":
        assert outcomes[0][3] is DirState.SHARED
