package hib

import (
	"telegraphos/internal/addrspace"
	"telegraphos/internal/packet"
	"telegraphos/internal/sim"
	"telegraphos/internal/trace"
)

// MsgSink receives bulk MsgData packets (set by the message-passing
// layer). It runs in the transient process that services the packet.
type MsgSink func(p *sim.Proc, pkt *packet.Packet)

// SetMsgSink installs the MsgData delivery callback.
func (h *HIB) SetMsgSink(fn MsgSink) { h.msgSink = fn }

// Precomputed telemetry labels, indexed by packet type: the receive and
// transmit paths run per packet, and building "rx-"+Type.String() there
// was one of the simulator's hottest allocation sites.
var rxLabels, txLabels, unhandledLabels [packet.NumTypes]string

func init() {
	for t := 0; t < packet.NumTypes; t++ {
		name := packet.Type(t).String()
		rxLabels[t] = "rx-" + name
		txLabels[t] = "tx-" + name
		unhandledLabels[t] = "unhandled-" + name
	}
}

func rxLabel(t packet.Type) string {
	if int(t) < len(rxLabels) {
		return rxLabels[t]
	}
	return "rx-" + t.String()
}

func txLabel(t packet.Type) string {
	if int(t) < len(txLabels) {
		return txLabels[t]
	}
	return "tx-" + t.String()
}

// countRx/countTx bump the per-type packet counters through their
// pre-resolved cells (see HIB.rxCells), falling back to the map for
// out-of-range types.
func (h *HIB) countRx(t packet.Type) {
	if int(t) < len(h.rxCells) {
		*h.rxCells[t]++
		return
	}
	h.Counters.Inc(rxLabel(t))
}

func (h *HIB) countTx(t packet.Type) {
	if int(t) < len(h.txCells) {
		*h.txCells[t]++
		return
	}
	h.Counters.Inc(txLabel(t))
}

func unhandledLabel(t packet.Type) string {
	if int(t) < len(unhandledLabels) {
		return unhandledLabels[t]
	}
	return "unhandled-" + t.String()
}

// nop is the done callback of loopback servicing, which holds no pipeline.
func nop() {}

// deliverLocal routes a packet addressed to this node without touching
// the network (the fabric has no self-routes), modeling the board's
// internal loopback path: HIBService, then the normal service path.
// Loopback servicing runs concurrently with the receive pumps.
func (h *HIB) deliverLocal(pkt *packet.Packet) {
	//tgvet:allow eventdrop(loopback service delay always fires; no cancel path exists)
	h.eng.Schedule(h.timing.HIBService, func() { h.service(h.loopName, pkt, nop) })
}

// service is the board's one packet-service path, entered when pkt has
// passed HIBService. done runs when servicing completes, releasing the
// caller's service pipeline. Only the work that blocks
// needs a process: an attached coherence protocol's IncomingPacket, a
// CopyReq's burst stream and a message sink's delivery run in a
// transient process named name. Every other packet, and every packet
// the protocol declines, goes to handle.
func (h *HIB) service(name string, pkt *packet.Packet, done func()) {
	h.countRx(pkt.Type)
	if h.coherence == nil && pkt.Type != packet.CopyReq && (pkt.Type != packet.MsgData || h.msgSink == nil) {
		h.handle(pkt, done)
		return
	}
	h.eng.SpawnDaemon(name, func(p *sim.Proc) {
		switch {
		case h.coherence != nil && h.coherence.IncomingPacket(p, pkt):
		case pkt.Type == packet.CopyReq:
			h.streamCopy(p, pkt)
		case pkt.Type == packet.MsgData && h.msgSink != nil:
			h.Emit(trace.EvMsgDeliver, uint64(pkt.Addr), uint64(pkt.Len), uint64(pkt.Src))
			h.msgSink(p, pkt)
		default:
			h.handle(pkt, done)
			return
		}
		done()
	})
}

// handle gives pkt the board's default handling with chained events: no
// process, no parks. Memory timing is a same-length event delay, and
// packets serialize through the board one at a time per VC (see
// rxPump) — which is what makes the home node a serialization point for
// atomic operations.
func (h *HIB) handle(pkt *packet.Packet, done func()) {
	switch pkt.Type {
	case packet.WriteReq:
		h.applyq.Push(applyItem{pkt: pkt, done: done})
		h.eng.Schedule(h.timing.MPMWrite, h.applyFn) //tgvet:allow eventdrop(memory-port apply delay always fires; no cancel path exists)
		return

	case packet.ReadReq:
		//tgvet:allow eventdrop(memory-port read delay always fires; no cancel path exists)
		h.eng.Schedule(h.timing.MPMRead, func() {
			v := h.mem.ReadWord(pkt.Addr.Offset())
			h.reply(&packet.Packet{Type: packet.ReadReply, Dst: pkt.Src, Val: v, ReqID: pkt.ReqID})
			done()
		})
		return

	case packet.AtomicReq:
		//tgvet:allow eventdrop(atomic read-modify-write delay always fires; no cancel path exists)
		h.eng.Schedule(h.timing.MPMRead+h.timing.MPMWrite, func() {
			old := h.applyAtomic(pkt.Op, pkt.Addr.Offset(), pkt.Val, pkt.Val2)
			h.Emit(trace.EvAtomicApply, uint64(pkt.Addr), pkt.Val, uint64(pkt.Src))
			h.reply(&packet.Packet{Type: packet.AtomicReply, Dst: pkt.Src, Val: old, ReqID: pkt.ReqID})
			done()
		})
		return

	case packet.CombAddReq:
		//tgvet:allow eventdrop(atomic read-modify-write delay always fires; no cancel path exists)
		h.eng.Schedule(h.timing.MPMRead+h.timing.MPMWrite, func() {
			h.applyCombAdd(pkt)
			done()
		})
		return

	case packet.CopyData:
		//tgvet:allow eventdrop(burst-copy setup delay always fires; no cancel path exists)
		h.eng.Schedule(h.timing.MPMWrite, func() { // burst setup
			if len(pkt.Data) > 0 {
				for j, w := range pkt.Data {
					h.mem.WriteWord(pkt.Addr.Offset()+8*uint64(j), w)
				}
			} else {
				h.mem.WriteWord(pkt.Addr.Offset(), pkt.Val)
			}
			h.Emit(trace.EvCopyApply, uint64(pkt.Addr), uint64(len(pkt.Data)), pkt.ReqID)
			if pkt.Last {
				if pkt.Origin == h.node {
					h.AddOutstanding(-1)
				} else {
					h.ack(pkt.Origin)
				}
			}
			done()
		})
		return

	case packet.BarrierArrive, packet.ReduceReq:
		h.collArrivePkt(pkt)

	case packet.BarrierRelease, packet.ReduceResult:
		h.collReleasePkt(pkt)

	case packet.MsgData:
		h.Counters.Inc("msg-dropped") // no message sink installed

	case packet.WriteAck:
		h.AddOutstanding(-1)
		h.freePacket(pkt)

	case packet.ReadReply, packet.AtomicReply, packet.CombAddReply:
		if fut, ok := h.pendingReads[pkt.ReqID]; ok {
			delete(h.pendingReads, pkt.ReqID)
			fut.Resolve(pkt.Val)
		} else {
			h.Counters.Inc("orphan-reply")
		}

	default:
		// UpdateFwd, ReflectedWrite, InvReq, InvAck, RingUpdate belong to
		// a coherence protocol; unclaimed, they are dropped visibly.
		h.Counters.Inc(unhandledLabel(pkt.Type))
	}
	done()
}

// ack sends a WriteAck to dst so its HIB can decrement its
// outstanding-operation counter.
func (h *HIB) ack(dst addrspace.NodeID) {
	pkt := h.newPacket()
	pkt.Type = packet.WriteAck
	pkt.Dst = dst
	h.reply(pkt)
}

// applyAtomic performs op on the word at offset and returns the previous
// value. It is atomic because requests serialize through the board's
// service path — the same argument the paper makes for the HIB.
func (h *HIB) applyAtomic(op packet.AtomicOp, offset uint64, val, val2 uint64) uint64 {
	old := h.mem.ReadWord(offset)
	switch op {
	case packet.FetchAndStore:
		h.mem.WriteWord(offset, val)
	case packet.FetchAndInc:
		h.mem.WriteWord(offset, old+1)
	case packet.CompareAndSwap:
		if old == val2 {
			h.mem.WriteWord(offset, val)
		}
	}
	h.Counters.Inc("atomic-" + op.String())
	return old
}

// copyChunkWords is the DMA burst size of the copy engine: each CopyData
// packet carries up to this many payload words, so bulk copies run at
// link bandwidth instead of paying a packet header per word.
const copyChunkWords = 64

// streamCopy services a CopyReq: it reads Len words starting at the
// request's source address (homed here) and streams them as chunked
// CopyData packets to the destination node. Each burst pays one memory
// access setup (page-mode DRAM). The final packet carries Last so the
// destination can signal completion to the origin.
func (h *HIB) streamCopy(p *sim.Proc, pkt *packet.Packet) {
	words := uint64(pkt.Len)
	for i := uint64(0); i < words; i += copyChunkWords {
		n := min(uint64(copyChunkWords), words-i)
		p.Sleep(h.timing.MPMRead) // burst setup
		data := make([]uint64, n)
		for j := range data {
			data[j] = h.mem.ReadWord(pkt.Addr.Offset() + 8*(i+uint64(j)))
		}
		out := &packet.Packet{
			Type:   packet.CopyData,
			Src:    h.node,
			Dst:    pkt.Addr2.Node(),
			Addr:   pkt.Addr2.Add(8 * i),
			Data:   data,
			Origin: pkt.Origin,
			ReqID:  pkt.ReqID,
			Last:   i+n == words,
		}
		if out.Dst == h.node {
			h.deliverLocal(out)
		} else {
			h.post(out)
		}
	}
}

// reply enqueues a reply packet from this node.
func (h *HIB) reply(pkt *packet.Packet) {
	pkt.Src = h.node
	if pkt.Dst == h.node {
		h.deliverLocal(pkt)
		return
	}
	h.post(pkt)
}
