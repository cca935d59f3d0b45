package hib

import (
	"errors"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/osmodel"
	"telegraphos/internal/packet"
	"telegraphos/internal/sim"
	"telegraphos/internal/trace"
)

// Telegraphos contexts (§2.2.4, Telegraphos II launch mechanism).
//
// A context is a small register set on the HIB that accumulates the
// arguments of a "special" (multi-instruction) operation: the operands
// arrive as uncached stores to the context's registers, physical-address
// arguments arrive as stores to *shadow* virtual addresses, and the
// operation fires on an access to the trigger register. A per-context key
// authenticates shadow stores, replacing FLASH's save/restore of a PID
// register on every context switch (§2.2.5): because the key travels in
// the store's data, no OS modification is needed, only a device driver.
//
// Register map (offsets within the HIB register space):
//
//	ctxBase + id*CtxStride + 0x00  operand 1 (atomic datum / copy length)
//	ctxBase + id*CtxStride + 0x08  operand 2 (compare&swap expected value)
//	ctxBase + id*CtxStride + 0x10  opcode (packet.AtomicOp)
//	ctxBase + id*CtxStride + 0x18  atomic trigger (read launches, returns old value)
//	ctxBase + id*CtxStride + 0x20  copy trigger (write launches, non-blocking)
//	ctxBase + id*CtxStride + 0x28  status (read)
//
// A shadow store's *data word* encodes which context and address slot the
// latched physical address belongs to plus the key:
//
//	bits 63..48  context id
//	bits 47..40  address slot (0 = source/target, 1 = copy destination)
//	bits 39..0   key

// CtxStride is the register-space stride between contexts.
const CtxStride = 0x40

// Context register offsets within one context's register window.
const (
	CtxRegOperand1 = 0x00
	CtxRegOperand2 = 0x08
	CtxRegOpcode   = 0x10
	CtxRegAtomicGo = 0x18
	CtxRegCopyGo   = 0x20
	CtxRegStatus   = 0x28
)

// KeyMask bounds the 40-bit context key.
const KeyMask = (uint64(1) << 40) - 1

// LaunchError is returned on the trigger register when a launch is
// rejected (unallocated context or missing address argument).
const LaunchError = ^uint64(0)

// Status register bits.
const (
	StatusAllocated = 1 << 0
	StatusAddr0     = 1 << 1
	StatusAddr1     = 1 << 2
)

// tgContext is one context's register state.
type tgContext struct {
	allocated bool
	key       uint64
	op        packet.AtomicOp
	operand1  uint64
	operand2  uint64
	addr      [2]addrspace.GAddr
	addrOK    [2]bool
}

// CtxRegPA returns the physical address of register reg of context id.
func CtxRegPA(id int, reg uint64) addrspace.PAddr {
	return addrspace.HIBRegPA(uint64(id)*CtxStride + reg)
}

// ShadowArg builds the data word of a shadow store: context id, address
// slot, and key.
func ShadowArg(id, slot int, key uint64) uint64 {
	return uint64(id)<<48 | uint64(slot)<<40 | key&KeyMask
}

// ErrNoFreeContext is returned by AllocContext when all contexts are busy.
var ErrNoFreeContext = errors.New("hib: no free Telegraphos context")

// AllocContext reserves a context protected by key (an OS service, done
// once at process setup). It returns the context id.
func (h *HIB) AllocContext(key uint64) (int, error) {
	for i := range h.contexts {
		if !h.contexts[i].allocated {
			h.contexts[i] = tgContext{allocated: true, key: key & KeyMask}
			return i, nil
		}
	}
	return 0, ErrNoFreeContext
}

// FreeContext releases context id.
func (h *HIB) FreeContext(id int) {
	if id >= 0 && id < len(h.contexts) {
		h.contexts[id] = tgContext{}
	}
}

// regWrite decodes a store to the HIB register space.
func (h *HIB) regWrite(p *sim.Proc, reg uint64, v uint64) {
	if h.palWrite(reg, v) {
		return
	}
	id := int(reg / CtxStride)
	if id >= len(h.contexts) {
		h.Counters.Inc("reg-write-bad")
		return
	}
	c := &h.contexts[id]
	switch reg % CtxStride {
	case CtxRegOperand1:
		c.operand1 = v
	case CtxRegOperand2:
		c.operand2 = v
	case CtxRegOpcode:
		c.op = packet.AtomicOp(v)
	case CtxRegCopyGo:
		h.launchCopy(p, id)
	default:
		h.Counters.Inc("reg-write-bad")
	}
}

// regRead decodes a load from the HIB register space. A load of the
// atomic trigger register launches the context's atomic operation and
// blocks until its result returns.
func (h *HIB) regRead(p *sim.Proc, reg uint64) uint64 {
	if v, ok := h.palRead(p, reg); ok {
		return v
	}
	id := int(reg / CtxStride)
	if id >= len(h.contexts) {
		h.Counters.Inc("reg-read-bad")
		return LaunchError
	}
	c := &h.contexts[id]
	switch reg % CtxStride {
	case CtxRegAtomicGo:
		return h.launchAtomic(p, id)
	case CtxRegStatus:
		var s uint64
		if c.allocated {
			s |= StatusAllocated
		}
		if c.addrOK[0] {
			s |= StatusAddr0
		}
		if c.addrOK[1] {
			s |= StatusAddr1
		}
		return s
	case CtxRegOperand1:
		return c.operand1
	case CtxRegOperand2:
		return c.operand2
	default:
		h.Counters.Inc("reg-read-bad")
		return LaunchError
	}
}

// shadowStore latches a physical address communicated through the shadow
// address space: the HIB strips the shadow bit and records the remaining
// physical address in the context/slot named by the store's data word —
// if and only if the key matches.
func (h *HIB) shadowStore(pa addrspace.PAddr, v uint64) {
	id := int(v >> 48)
	slot := int(v>>40) & 0xFF
	key := v & KeyMask
	if id >= len(h.contexts) || slot > 1 {
		h.rejectShadow()
		return
	}
	c := &h.contexts[id]
	if !c.allocated || c.key != key {
		h.rejectShadow()
		return
	}
	g, ok := addrspace.GAddrOfPA(h.node, pa.ClearShadow())
	if !ok {
		h.rejectShadow()
		return
	}
	c.addr[slot] = g
	c.addrOK[slot] = true
	h.Counters.Inc("shadow-store")
}

func (h *HIB) rejectShadow() {
	h.Counters.Inc("shadow-rejected")
	h.os.RaiseInterrupt(osmodel.IntrProtection, 0)
}

// launchAtomic fires context id's atomic operation on its slot-0 address
// and returns the fetched previous value, blocking the caller (the CPU's
// trigger read) until the reply returns.
func (h *HIB) launchAtomic(p *sim.Proc, id int) uint64 {
	c := &h.contexts[id]
	if !c.allocated || !c.addrOK[0] {
		h.Counters.Inc("launch-rejected")
		h.os.RaiseInterrupt(osmodel.IntrProtection, 0)
		return LaunchError
	}
	h.Counters.Inc("launch-atomic")
	c.addrOK[0] = false // the launch consumes the address argument
	return h.fireAtomic(p, c.op, c.addr[0], c.operand1, c.operand2)
}

// fireAtomic performs atomic op on g with operands v1 and v2 for the
// launching process p and returns the fetched previous value, blocking p
// until the reply returns. A home-node operation runs on the local
// board. Both launch paths (contexts and PAL special mode) record the
// operation's boundaries here, so the trace checkers see every atomic.
func (h *HIB) fireAtomic(p *sim.Proc, op packet.AtomicOp, g addrspace.GAddr, v1, v2 uint64) uint64 {
	bop := boundaryOpOf(op)
	seq := h.invokeOp(bop, g, v1)
	if op == packet.CompareAndSwap {
		h.Emit(trace.EvOpArg, uint64(g), v2, trace.BoundaryAux(bop, seq))
	}
	if g.Node() == h.node {
		p.Sleep(h.timing.MPMRead + h.timing.MPMWrite)
		old := h.applyAtomic(op, g.Offset(), v1, v2)
		h.Emit(trace.EvAtomicApply, uint64(g), v1, uint64(h.node))
		h.returnOp(bop, seq, g, old)
		return old
	}
	h.nextReqID++
	rid := h.nextReqID
	fut := sim.NewFuture[uint64](h.eng)
	h.pendingReads[rid] = fut
	req := &packet.Packet{
		Type:  packet.AtomicReq,
		Src:   h.node,
		Dst:   g.Node(),
		Addr:  g,
		Val:   v1,
		Val2:  v2,
		Op:    op,
		ReqID: rid,
	}
	if h.combining && op == packet.FetchAndInc {
		// A remote fetch&increment travels as a combinable add of one so
		// switches can merge concurrent hot-counter requests in flight;
		// the reply carries this ReqID back after any de-combining.
		req.Type = packet.CombAddReq
		req.Val = 1
		req.Val2 = 0
	}
	h.postCPU(p, req)
	old := fut.Wait(p)
	h.returnOp(bop, seq, g, old)
	return old
}

// boundaryOpOf maps a packet-level atomic opcode onto its boundary op.
func boundaryOpOf(op packet.AtomicOp) trace.BoundaryOp {
	switch op {
	case packet.FetchAndInc:
		return trace.BOpFetchInc
	case packet.CompareAndSwap:
		return trace.BOpCompareSwap
	default:
		return trace.BOpFetchStore
	}
}

// launchCopy fires context id's remote copy: operand1 words from the
// slot-0 (source) address to the slot-1 (destination) address. It returns
// immediately; completion is tracked by the outstanding-operation counter
// and thus covered by FENCE (§2.2.2: "it returns control to the processor
// without waiting for the completion of the operation").
func (h *HIB) launchCopy(p *sim.Proc, id int) {
	c := &h.contexts[id]
	if !c.allocated || !c.addrOK[0] || !c.addrOK[1] || c.operand1 == 0 {
		h.Counters.Inc("launch-rejected")
		h.os.RaiseInterrupt(osmodel.IntrProtection, 0)
		return
	}
	h.Counters.Inc("launch-copy")
	src, dst := c.addr[0], c.addr[1]
	words := c.operand1
	c.addrOK[0], c.addrOK[1] = false, false
	h.AddOutstanding(1)
	req := &packet.Packet{
		Type:   packet.CopyReq,
		Src:    h.node,
		Dst:    src.Node(),
		Addr:   src,
		Addr2:  dst,
		Origin: h.node,
		Len:    uint32(words),
	}
	if src.Node() == h.node {
		// Source is local: the board's DMA engine streams directly.
		h.eng.SpawnDaemon(h.dmaName, func(dp *sim.Proc) {
			h.streamCopy(dp, req)
		})
		return
	}
	h.postCPU(p, req)
}
