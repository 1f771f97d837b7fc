"""Home-side coherence transaction engine.

One :class:`HomeEngine` per node services every coherence request whose
address is homed there.  Transactions on the same line are serialized by
the line's directory ``busy`` resource (the hardware busy bit); the DRAM
access is performed *while the entry is busy* — matching Origin-style
directory controllers, where a read request occupies the directory slot
until the memory reply is injected.  This non-pipelined service is a
first-order term in the paper's results: it is what makes the
invalidate-then-reload wake-up storm of conventional barriers/locks cost
O(P x full service time) at the home, while AMO word-update pushes cost
only O(P x egress injection).

Three-hop transactions (owner intervention) follow the SN2 style: the
home forwards an intervention to the exclusive owner, the owner replies
with data *directly to the requester* and sends a sharing writeback (or
ownership-transfer ack) back to the home, which then retires the
transaction.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.coherence.directory import Directory, DirState
from repro.mem.address import line_base, word_base
from repro.network.message import Message, MessageKind
from repro.sim.backends.wave import build_wave_py, expand_wave_py
from repro.sim.primitives import Signal, Timeout
from repro.sim.step import Step

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import Hub


class AckLatch:
    """Counts acknowledgements; fires its signal when all have arrived."""

    __slots__ = ("signal", "remaining")

    def __init__(self, expected: int, name: str = "") -> None:
        self.signal = Signal(name=name)
        self.remaining = expected

    def ack(self, sim) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            self.signal.fire(sim, None)
        elif self.remaining < 0:
            raise RuntimeError("ack latch over-acked")


class _GetS(Step):
    """A GET_S as a process-free handler (see :mod:`repro.sim.step`).

    Directory busy slot, directory occupancy, then either the clean read
    or — when a cache holds the line exclusive — the 3-hop coroutine
    ``HomeEngine._get_s_owned``, which keeps its waits on signals.

    Clean read: memory supplies the data.  The directory slot is held
    only for the lookup/state update; the DRAM access and reply
    injection (the read-fill) proceed after release, so a read *storm*
    serializes at (directory + channel occupancy), not at full access
    latency — Origin-style pipelined reads.  Racing invalidations/
    updates against the in-flight reply are handled by the requester's
    MSHR logic (see CacheController._fetch).

    Note: if the AMU caches a newer value for a word in this line, the
    reply is deliberately *stale* — the paper's release-consistency
    semantics (§3.2): AMU values become visible at the put (test match
    / eviction), not before.

    Built with ``words``, the step is just the read-fill of a clean read
    the directory already served.
    """

    __slots__ = ("eng", "msg", "ent", "words", "reply")

    def __init__(self, eng: "HomeEngine", msg: Message,
                 words: Optional[dict] = None) -> None:
        Step.__init__(self, eng.sim,
                      self._begin if words is None else self._read_fill)
        self.eng = eng
        self.msg = msg
        self.words = words

    def _begin(self) -> None:
        eng = self.eng
        eng.get_s_served += 1
        self.ent = eng.directory.entry(line_base(self.msg.addr))
        self._rn = (self._busy_granted, ())
        self.ent.busy._acquire._arm(self.sim, self)

    def _busy_granted(self) -> None:
        self._rn = (self._serve, ())
        self.eng._t_dir._arm(self.sim, self)

    def _serve(self) -> None:
        eng, msg, ent = self.eng, self.msg, self.ent
        if ent.state is DirState.EXCLUSIVE:
            self._continue_in(eng._get_s_owned_tail(msg, ent))
            return
        self.words = eng.backing.read_line(ent.line_addr,
                                           eng.config.line_bytes)
        ent.sharer_mask |= 1 << msg.requester
        ent.state = DirState.SHARED
        ent.version += 1
        # the read-fill starts from its own same-cycle event, queued
        # before the busy release hands the slot to the next request
        self._rn = (self._read_fill, ())
        self.sim._ring.append(self._rn)
        ent.busy.release()
        if self.proc is not None:
            self._resume_proc()

    # the read-fill: Dram.access_line, then Hub.egress_send of the DATA_S
    def _read_fill(self) -> None:
        dram = self.eng.dram
        dram.line_accesses += 1
        self._rn = (self._dram_granted, ())
        dram._channel._acquire._arm(self.sim, self)

    def _dram_granted(self) -> None:
        self._rn = (self._dram_done, ())
        self.eng.dram._t_line_occ._arm(self.sim, self)

    def _dram_done(self) -> None:
        dram = self.eng.dram
        dram._channel.release()
        if dram._line_residual > 0:
            self._rn = (self._reply, ())
            dram._t_line_res._arm(self.sim, self)
        else:
            self._reply()

    def _reply(self) -> None:
        eng, msg = self.eng, self.msg
        self.reply = Message(
            kind=MessageKind.DATA_S, src_node=eng.node,
            dst_node=msg.src_node, addr=msg.addr, payload=self.words,
            reply_to=msg.reply_to, requester=msg.requester)
        self._rn = (self._egress_granted, ())
        eng.hub._egress._acquire._arm(self.sim, self)

    def _egress_granted(self) -> None:
        self._rn = (self._egress_done, ())
        self.eng.hub._t_egress_line._arm(self.sim, self)

    def _egress_done(self) -> None:
        eng = self.eng
        eng.hub._egress.release()
        eng.net.send(self.reply)
        if self.proc is not None:
            self._resume_proc()


class HomeEngine:
    """Directory + memory controller protocol engine for one home node."""

    __slots__ = ("hub", "sim", "node", "config", "net", "dram", "backing",
                 "directory", "transactions", "get_s_served", "get_x_served",
                 "writebacks_served", "invalidations_sent",
                 "interventions_sent", "word_updates_pushed", "_t_dir",
                 "_name_get_x", "_name_wb", "_expand_wave", "_build_wave")

    def __init__(self, hub: "Hub") -> None:
        self.hub = hub
        self.sim = hub.sim
        self.node = hub.node
        self.config = hub.config
        self.net = hub.net
        self.dram = hub.dram
        self.backing = hub.backing
        self.directory = Directory(hub.node)
        self.transactions = 0
        self.get_s_served = 0
        self.get_x_served = 0
        self.writebacks_served = 0
        self.invalidations_sent = 0
        self.interventions_sent = 0
        self.word_updates_pushed = 0
        # fixed directory-occupancy delay: Timeout is stateless, reuse one
        self._t_dir = Timeout(self.config.hub.hub_to_cpu(
            self.config.hub.directory_occupancy_hub_cycles))
        # spawn names precomputed once: handle() runs per request message
        self._name_get_x = f"getX@{self.node}"
        self._name_wb = f"wb@{self.node}"
        # fan-out expansion and wave construction; the accel model port
        # swaps in compiled/numpy forms (identical messages and order)
        self._expand_wave = expand_wave_py
        self._build_wave = build_wave_py

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def handle(self, msg: Message) -> None:
        """Entry point from the hub for a request homed at this node."""
        self.transactions += 1
        if msg.kind is MessageKind.GET_S:
            self._start_get_s(msg)
        elif msg.kind is MessageKind.GET_X:
            self.sim.spawn(self._serve_get_x(msg), name=self._name_get_x)
        elif msg.kind is MessageKind.WRITEBACK:
            self.sim.spawn(self._serve_writeback(msg), name=self._name_wb)
        elif msg.kind is MessageKind.UNCACHED_READ:
            self.sim.spawn(self._serve_uncached_read(msg))
        elif msg.kind is MessageKind.UNCACHED_WRITE:
            self.sim.spawn(self._serve_uncached_write(msg))
        else:
            raise RuntimeError(f"home engine got unexpected {msg!r}")

    def _count_invalidations(self, fanout: int) -> None:
        """Account one invalidation wave of ``fanout`` targets."""
        self.invalidations_sent += fanout
        obs = self.hub.machine.obs
        if obs is not None:
            obs.inval_fanout.observe(fanout)

    # ------------------------------------------------------------------
    # GET_S — read miss (the step object _GetS, below, serves it)
    # ------------------------------------------------------------------
    def _start_get_s(self, msg: Message) -> None:
        _GetS(self, msg).start()

    def _serve_get_s(self, msg: Message):
        """Generator form of :meth:`_start_get_s` (the compiled core's
        fallback twin); finishes when the directory slot is released."""
        yield _GetS(self, msg)

    def _finish_clean_read(self, msg: Message, words):
        """Generator form of a clean GET_S's read-fill (the compiled
        core's fallback twin)."""
        yield _GetS(self, msg, words)

    def _get_s_owned_tail(self, msg: Message, ent):
        """Coroutine: the 3-hop GET_S tail, freeing the directory slot."""
        try:
            yield from self._get_s_owned(msg, ent)
        finally:
            ent.busy.release()

    def _get_s_owned(self, msg: Message, ent):
        """Coroutine: the GET_S tail when a cache holds the line exclusive.

        3-hop: downgrade the owner; data flows owner->requester, sharing
        writeback flows owner->home.
        """
        requester = msg.requester
        if ent.owner == requester:
            # owner re-fetching after silent drop is impossible in
            # this model (clean evictions notify); treat as error.
            raise RuntimeError(f"owner {requester} re-requested {ent!r}")
        words = yield from self._intervene(
            owner=ent.owner, requester_msg=msg, downgrade=True)
        self.backing.write_line(ent.line_addr, words)
        ent.sharer_mask = (1 << ent.owner) | (1 << requester)
        ent.owner = None
        ent.state = DirState.SHARED

    # ------------------------------------------------------------------
    # GET_X — store miss / upgrade / LL-SC upgrade / atomic fetch
    # ------------------------------------------------------------------
    def _serve_get_x(self, msg: Message):
        self.get_x_served += 1
        line = line_base(msg.addr)
        ent = self.directory.entry(line)
        yield ent.busy.acquire()
        try:
            yield self._t_dir
            requester = msg.requester
            if ent.state is DirState.EXCLUSIVE and ent.owner != requester:
                words = yield from self._intervene(
                    owner=ent.owner, requester_msg=msg, downgrade=False)
                self.backing.write_line(line, words)
                ent.owner = requester
                ent.version += 1
                # data went owner->requester directly; nothing more to send
            elif ent.state is DirState.EXCLUSIVE:
                # already the owner (racing duplicate); just re-acknowledge
                yield self._reply_data_x(msg, ent)
            else:
                if ent.amu_sharer:
                    yield from self.hub.amu.flush_line(line)
                    ent.amu_sharer = False
                inv_mask = ent.sharer_mask & ~(1 << requester)
                if inv_mask:
                    fanout = inv_mask.bit_count()
                    self._count_invalidations(fanout)
                    latch = AckLatch(fanout)
                    wave = self._build_wave(
                        MessageKind.INVALIDATE, self.node, msg.addr, None,
                        latch, self._expand_wave(
                            inv_mask, self.config.cpus_per_node))
                    yield self.hub.egress_wave(wave).wait()
                    yield latch.signal.wait()
                # bare yield: kernel-flattened subcall (one frame/resume)
                yield self._reply_data_x(msg, ent)
        finally:
            ent.busy.release()

    def _reply_data_x(self, msg: Message, ent) -> object:
        line = ent.line_addr
        yield self.dram.access_line()
        words = self.backing.read_line(line, self.config.line_bytes)
        ent.sharer_mask = 0
        ent.owner = msg.requester
        ent.state = DirState.EXCLUSIVE
        ent.amu_sharer = False
        ent.version += 1
        yield self.hub.egress_send(Message(
            kind=MessageKind.DATA_X, src_node=self.node,
            dst_node=msg.src_node, addr=msg.addr, payload=words,
            reply_to=msg.reply_to, requester=msg.requester))

    # ------------------------------------------------------------------
    # 3-hop intervention helper
    # ------------------------------------------------------------------
    def _intervene(self, owner: int, requester_msg: Message, downgrade: bool):
        """Forward an intervention to ``owner``; wait for its writeback.

        Returns the owner's line words (the coherent data).  The owner
        itself sends the data reply directly to the requester.
        """
        self.interventions_sent += 1
        done = Signal(name=f"intervene@{requester_msg.addr:#x}")
        node = self.hub.machine.node_of_cpu(owner)
        yield from self.hub.egress_send(Message(
            kind=MessageKind.INTERVENTION, src_node=self.node,
            dst_node=node, addr=requester_msg.addr, dst_cpu=owner,
            value="downgrade" if downgrade else "invalidate",
            payload=(requester_msg, done)))
        wb_msg = yield done.wait()
        return wb_msg.payload  # words dict from the owner's cache

    # ------------------------------------------------------------------
    # writebacks (dirty eviction or clean-exclusive drop notification)
    # ------------------------------------------------------------------
    def _serve_writeback(self, msg: Message):
        self.writebacks_served += 1
        line = line_base(msg.addr)
        ent = self.directory.entry(line)
        yield ent.busy.acquire()
        try:
            yield self._t_dir
            if msg.payload is not None:
                yield from self.dram.access_line()
                self.backing.write_line(line, msg.payload)
            if ent.owner == msg.requester:
                ent.owner = None
                ent.state = DirState.UNOWNED
            elif ent.sharer_mask >> msg.requester & 1:
                ent.sharer_mask &= ~(1 << msg.requester)
                if not ent.sharer_mask and not ent.amu_sharer:
                    ent.state = DirState.UNOWNED
            ent.version += 1
            yield from self.hub.egress_send(Message(
                kind=MessageKind.WRITEBACK_ACK, src_node=self.node,
                dst_node=msg.src_node, addr=msg.addr,
                reply_to=msg.reply_to, requester=msg.requester))
        finally:
            ent.busy.release()

    # ------------------------------------------------------------------
    # uncached accesses (MAO spin path, IO space)
    # ------------------------------------------------------------------
    def _serve_uncached_read(self, msg: Message):
        # The freshest value of a MAO-operated word lives in the AMU
        # cache (MAOs never write coherence state); serve from there.
        cached = self.hub.amu.peek(msg.addr)
        if cached is not None:
            yield Timeout(self.config.hub.hub_to_cpu(
                self.config.amu.op_latency_hub_cycles))
            value = cached
        else:
            value = yield from self.read_coherent_word(msg.addr)
        yield from self.hub.egress_send(Message(
            kind=MessageKind.UNCACHED_READ_REPLY, src_node=self.node,
            dst_node=msg.src_node, addr=msg.addr, value=value,
            reply_to=msg.reply_to, requester=msg.requester))

    def _serve_uncached_write(self, msg: Message):
        yield from self.write_coherent_word(msg.addr, msg.value,
                                            push_updates=False)
        yield from self.hub.egress_send(Message(
            kind=MessageKind.UNCACHED_WRITE_ACK, src_node=self.node,
            dst_node=msg.src_node, addr=msg.addr,
            reply_to=msg.reply_to, requester=msg.requester))

    # ------------------------------------------------------------------
    # coherent word access, used by the fine-grained engine / MAO path
    # ------------------------------------------------------------------
    def read_coherent_word(self, addr: int):
        """Coroutine: coherent value of one word (home-local entry point).

        If a processor cache holds the line exclusively, the owner is
        downgraded (3-hop); otherwise memory (or the AMU cache, checked by
        callers) supplies the value.
        """
        line = line_base(addr)
        ent = self.directory.entry(line)
        yield ent.busy.acquire()
        try:
            yield self._t_dir
            if ent.state is DirState.EXCLUSIVE:
                fake_req = Message(
                    kind=MessageKind.FG_GET, src_node=self.node,
                    dst_node=self.node, addr=addr, requester=None,
                    reply_to=None)
                words = yield from self._intervene(
                    owner=ent.owner, requester_msg=fake_req, downgrade=True)
                self.backing.write_line(line, words)
                ent.sharer_mask = 1 << ent.owner
                ent.owner = None
                ent.state = DirState.SHARED
                ent.version += 1
            yield from self.dram.access_word()
            return self.backing.read_word(addr)
        finally:
            ent.busy.release()

    def write_coherent_word(self, addr: int, value: int,
                            push_updates: bool) -> object:
        """Coroutine: write one word at the home (fine-grained put).

        With ``push_updates`` (the paper's put mechanism), a WORD_UPDATE
        is pushed to every sharer's cache — the line stays SHARED, no
        invalidations, no reloads.  Without it (MAO/uncached semantics),
        sharers must be invalidated to keep caches coherent.
        """
        line = line_base(addr)
        ent = self.directory.entry(line)
        yield ent.busy.acquire()
        try:
            yield self._t_dir
            if ent.state is DirState.EXCLUSIVE:
                # pull the line home first (rare: sync variables are not
                # normally write-shared with exclusive owners)
                fake_req = Message(
                    kind=MessageKind.FG_PUT, src_node=self.node,
                    dst_node=self.node, addr=addr, requester=None,
                    reply_to=None)
                words = yield from self._intervene(
                    owner=ent.owner, requester_msg=fake_req, downgrade=True)
                self.backing.write_line(line, words)
                ent.sharer_mask = 1 << ent.owner
                ent.owner = None
                ent.state = DirState.SHARED
            yield from self.dram.access_word()
            self.backing.write_word(addr, value)
            san = self.hub.machine.sanitizer
            if san is not None:
                san.note_coherent_write(addr, value, push_updates)
            ent.version += 1
            if push_updates:
                if ent.sharer_mask:
                    fanout = ent.sharer_mask.bit_count()
                    self.word_updates_pushed += fanout
                    obs = self.hub.machine.obs
                    if obs is not None:
                        obs.update_fanout.observe(fanout)
                    word = word_base(addr)
                    updates = self._build_wave(
                        MessageKind.WORD_UPDATE, self.node, word, value,
                        None, self._expand_wave(
                            ent.sharer_mask, self.config.cpus_per_node))
                    if self.config.network.multicast_updates:
                        # hardware multicast (footnote 2): the routers
                        # replicate the packet — one injection slot
                        # total, batched lazy delivery for the replicas
                        yield self.hub.egress_wave(updates[:1]).wait()
                        self.net.send_multicast(updates[1:])
                    else:
                        yield self.hub.egress_wave(updates).wait()
            elif ent.sharer_mask:
                fanout = ent.sharer_mask.bit_count()
                self._count_invalidations(fanout)
                latch = AckLatch(fanout)
                wave = self._build_wave(
                    MessageKind.INVALIDATE, self.node, addr, None, latch,
                    self._expand_wave(
                        ent.sharer_mask, self.config.cpus_per_node))
                yield self.hub.egress_wave(wave).wait()
                yield latch.signal.wait()
                ent.sharer_mask = 0
                if not ent.amu_sharer:
                    ent.state = DirState.UNOWNED
        finally:
            ent.busy.release()

    # ------------------------------------------------------------------
    def mark_amu_sharer(self, addr: int) -> None:
        """Register the local AMU as a fine-grained sharer of the line."""
        ent = self.directory.entry(line_base(addr))
        ent.amu_sharer = True
        if ent.state is DirState.UNOWNED:
            ent.state = DirState.SHARED

    def unmark_amu_sharer(self, addr: int) -> None:
        ent = self.directory.entry(line_base(addr))
        ent.amu_sharer = False
        if ent.state is DirState.SHARED and not ent.sharer_mask:
            ent.state = DirState.UNOWNED
