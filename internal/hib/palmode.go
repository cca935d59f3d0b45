package hib

import (
	"telegraphos/internal/addrspace"
	"telegraphos/internal/packet"
	"telegraphos/internal/sim"
)

// Telegraphos I special-mode launch (§2.2.4).
//
// The first prototype has no contexts or shadow addressing. Instead the
// HIB is put into a *special mode* by a store to a dedicated register;
// while in special mode it does not perform the remote read/write
// operations issued by its local processor but interprets them as
// argument-passing commands. Protection still comes from the TLB (the
// processor can only issue stores to addresses it can legally write),
// and atomicity of the multi-instruction sequence comes from running it
// in uninterruptible PAL code — which the simulation models by the
// sequence running without yielding to an OS context switch.
//
// Register map (beyond the context windows):
//
//	PALModeReg    write 1 to enter special mode, 0 to leave
//	PALOpcodeReg  the pending special operation's opcode
//	PALOperandReg the pending operation's datum
//	PALTriggerReg read fires the operation and returns the old value
//
// While in special mode, an ordinary store to a (remote or local shared)
// address is latched as the operation's target physical address instead
// of being performed.

// PAL register numbers (placed above the context windows).
const (
	PALModeReg    = 0xF000
	PALOpcodeReg  = 0xF008
	PALOperandReg = 0xF010
	PALTriggerReg = 0xF018
)

// palState is the special-mode latch state.
type palState struct {
	active  bool
	op      packet.AtomicOp
	operand uint64
	addr    addrspace.GAddr
	addrOK  bool
}

// palWrite handles stores to the PAL register window; it reports whether
// the register number belonged to it.
func (h *HIB) palWrite(reg uint64, v uint64) bool {
	switch reg {
	case PALModeReg:
		h.pal.active = v != 0
		if !h.pal.active {
			h.pal = palState{} // leaving special mode clears the latch
		}
		h.Counters.Inc("pal-mode")
	case PALOpcodeReg:
		h.pal.op = packet.AtomicOp(v)
	case PALOperandReg:
		h.pal.operand = v
	default:
		return false
	}
	return true
}

// palRead handles loads from the PAL register window.
func (h *HIB) palRead(p *sim.Proc, reg uint64) (uint64, bool) {
	if reg != PALTriggerReg {
		return 0, false
	}
	if !h.pal.active || !h.pal.addrOK {
		h.Counters.Inc("launch-rejected")
		return LaunchError, true
	}
	h.Counters.Inc("launch-atomic-pal")
	h.pal.addrOK = false
	return h.fireAtomic(p, h.pal.op, h.pal.addr, h.pal.operand, 0), true
}

// palLatchAddress intercepts a data-space store while special mode is
// active: the store is *not* performed; its physical address becomes the
// pending operation's target. It reports whether it consumed the store.
func (h *HIB) palLatchAddress(pa addrspace.PAddr) bool {
	if !h.pal.active {
		return false
	}
	g, ok := addrspace.GAddrOfPA(h.node, pa)
	if !ok {
		h.Counters.Inc("pal-latch-rejected")
		return true
	}
	h.pal.addr = g
	h.pal.addrOK = true
	h.Counters.Inc("pal-latch")
	return true
}

// PALActive reports whether the board is in special mode (telemetry).
func (h *HIB) PALActive() bool { return h.pal.active }
