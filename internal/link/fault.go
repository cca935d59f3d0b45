// Fault injection and the link-level retransmission protocol.
//
// A FaultPlan turns the ideal lossless wire into an adversarial one:
// packets may be dropped, duplicated, delayed by random jitter, or held
// back so that later packets overtake them. To keep the external contract
// the rest of the machine depends on — lossless, in-order, exactly-once
// per virtual channel — a faulty link runs a go-back-style ARQ sublayer:
// every frame carries a per-VC sequence number, the receiver acknowledges
// cumulatively and reassembles order with a reorder buffer, duplicates
// are recognized and discarded by sequence number, and unacknowledged
// frames are retransmitted on a timer. This mirrors the fault-tolerant
// link layers of NIC-based protocol work (e.g. APEnet+): the wire is
// unreliable, the link presents reliability upward.
package link

import (
	"telegraphos/internal/fifo"
	"telegraphos/internal/packet"
	"telegraphos/internal/sim"
)

// FaultPlan describes the seeded fault environment for every link built
// with it. Probabilities apply per transmission attempt; all randomness
// derives from Seed and the link's name, so a plan is fully deterministic.
type FaultPlan struct {
	// Seed drives every per-link random stream.
	Seed int64
	// DropProb is the probability a transmitted frame vanishes in flight.
	DropProb float64
	// DupProb is the probability a frame is delivered twice.
	DupProb float64
	// ReorderProb is the probability a frame is held back by ReorderDelay,
	// letting frames sent after it arrive first.
	ReorderProb float64
	// JitterMax adds a uniform random [0, JitterMax] to every frame's
	// propagation delay.
	JitterMax sim.Time
	// ReorderDelay is the hold-back applied to reordered frames
	// (default 2 µs when zero and ReorderProb > 0).
	ReorderDelay sim.Time
	// RetryTimeout is the ARQ retransmission timer (a safe default is
	// derived from the link parameters when zero). Spurious retransmits
	// are harmless: the receiver deduplicates by sequence number.
	RetryTimeout sim.Time
}

// Active reports whether the plan injects any fault at all.
func (fp *FaultPlan) Active() bool {
	return fp != nil && (fp.DropProb > 0 || fp.DupProb > 0 || fp.ReorderProb > 0 || fp.JitterMax > 0)
}

// FaultStats counts fault events and recovery work on one link.
type FaultStats struct {
	Dropped     int64 // frames lost in flight
	Duplicated  int64 // frames delivered twice by the wire
	Reordered   int64 // frames held back past their successors
	Retransmits int64 // ARQ retransmission attempts
	Deduped     int64 // duplicate frames discarded by the receiver
	Buffered    int64 // out-of-order frames parked in the reorder buffer
}

// Add accumulates other into s.
func (s *FaultStats) Add(other FaultStats) {
	s.Dropped += other.Dropped
	s.Duplicated += other.Duplicated
	s.Reordered += other.Reordered
	s.Retransmits += other.Retransmits
	s.Deduped += other.Deduped
	s.Buffered += other.Buffered
}

// Total reports the number of injected fault events (not recovery work).
func (s FaultStats) Total() int64 { return s.Dropped + s.Duplicated + s.Reordered }

// frame is one ARQ transfer unit: a packet plus its per-VC sequence number.
type frame struct {
	seq uint64
	pkt *packet.Packet
}

// arqSlot is one unacknowledged frame and its retransmission timer.
// Acknowledged slots are kept for reuse, each with the retry callback
// bound when it was created, so arming a timer allocates nothing.
type arqSlot struct {
	f     frame
	timer sim.Event
	retry func()
}

// heldWindow is one VC's reorder buffer: frames that arrived ahead of the
// next expected sequence number. The frame with sequence number seq sits
// seq-expect slots past head in a ring; nil marks a gap. The slot at
// head itself (seq == expect) is always nil, since that frame is
// delivered on arrival.
type heldWindow struct {
	pkts []*packet.Packet // len is zero or a power of two
	head int
}

// injector is the per-link fault + ARQ state, split along the wire: the
// sender half (sequence assignment, fault draws, retransmission timers)
// runs on the link's sender engine, the receiver half (dedup, reorder
// buffer, cumulative acks) on its receiver engine. Frames cross on the
// link's forward channel and acks return on the reverse channel, so the
// two halves never touch each other's state directly and the link may
// span two shards.
type injector struct {
	l       *Link
	rng     *sim.RNG // sender-side: all fault draws happen at transmit
	plan    FaultPlan
	timeout sim.Time

	// Sender state, per VC: frames sent but not yet cumulatively acked.
	// Acks are cumulative, so those are exactly the sequence numbers
	// [acked, nextSeq), queued in that order.
	nextSeq [packet.NumVCs]uint64
	sent    [packet.NumVCs]fifo.Ring[*arqSlot]
	spare   [packet.NumVCs][]*arqSlot // acknowledged slots, for reuse
	acked   [packet.NumVCs]uint64     // all seq < acked are acknowledged

	// Receiver state, per VC: next expected sequence number and the
	// reorder buffer of frames that arrived early.
	expect [packet.NumVCs]uint64
	held   [packet.NumVCs]heldWindow

	sstats FaultStats // sender-side counters (drops, dups, reorders, retransmits)
	rstats FaultStats // receiver-side counters (dedup, reorder buffering)
}

// newInjector builds the ARQ state for l under plan.
func newInjector(l *Link, plan FaultPlan) *injector {
	inj := &injector{
		l:    l,
		rng:  sim.ForkRNG(uint64(plan.Seed), "link/"+l.name),
		plan: plan,
	}
	if inj.plan.ReorderDelay == 0 {
		inj.plan.ReorderDelay = 2 * sim.Microsecond
	}
	inj.timeout = plan.RetryTimeout
	if inj.timeout == 0 {
		// Cover the worst honest one-way delay (propagation + jitter +
		// reorder hold-back + a generous serialization allowance) with
		// margin; too short only costs harmless duplicate retransmits.
		inj.timeout = 4*(l.cfg.PropDelay+inj.plan.JitterMax+inj.plan.ReorderDelay) +
			128*l.cfg.WordTime + 10*sim.Microsecond
	}
	return inj
}

// send enters a packet into the ARQ sender after it has cleared the wire:
// it is assigned the next sequence number, transmitted through the faulty
// channel, and guarded by a retransmission timer until acknowledged.
func (inj *injector) send(vc packet.VC, pkt *packet.Packet) {
	seq := inj.nextSeq[vc]
	inj.nextSeq[vc]++
	var s *arqSlot
	if n := len(inj.spare[vc]); n > 0 {
		s = inj.spare[vc][n-1]
		inj.spare[vc] = inj.spare[vc][:n-1]
	} else {
		s = new(arqSlot)
		s.retry = func() { inj.retry(vc, s) }
	}
	s.f = frame{seq: seq, pkt: pkt}
	inj.sent[vc].Push(s)
	inj.transmit(vc, s)
}

// transmit pushes one attempt of s's frame through the faulty channel and
// arms the retransmission timer. It runs on the sender engine; deliveries
// cross to the receiver on the link's forward channel (whose minimum
// delay, the propagation delay, bounds every jittered arrival below).
func (inj *injector) transmit(vc packet.VC, s *arqSlot) {
	f := s.f
	delay := inj.l.cfg.PropDelay + inj.rng.Duration(inj.plan.JitterMax)
	switch {
	case inj.rng.Bool(inj.plan.DropProb):
		inj.sstats.Dropped++
		// The frame vanishes; only the retry timer will resurrect it.
	case inj.rng.Bool(inj.plan.DupProb):
		inj.sstats.Duplicated++
		inj.l.fwd.Send(delay, func() { inj.arrive(vc, f) })
		extra := delay + inj.rng.Duration(inj.plan.JitterMax) + sim.Microsecond
		inj.l.fwd.Send(extra, func() { inj.arrive(vc, f) })
	case inj.rng.Bool(inj.plan.ReorderProb):
		inj.sstats.Reordered++
		inj.l.fwd.Send(delay+inj.plan.ReorderDelay, func() { inj.arrive(vc, f) })
	default:
		inj.l.fwd.Send(delay, func() { inj.arrive(vc, f) })
	}
	s.timer.Cancel() // zero/stale handles are inert no-ops
	s.timer = inj.l.eng.Schedule(inj.timeout, s.retry)
}

// retry runs when s's retransmission timer fires: the frame was not
// acked in time, so it goes out again.
func (inj *injector) retry(vc packet.VC, s *arqSlot) {
	if s.f.pkt == nil {
		return // acked while the timer event was in flight
	}
	inj.sstats.Retransmits++
	inj.transmit(vc, s)
}

// arrive is the receiver side: deduplicate, restore order, deliver, ack.
// It runs on the receiver engine as a forward-channel message.
func (inj *injector) arrive(vc packet.VC, f frame) {
	h := &inj.held[vc]
	switch {
	case f.seq < inj.expect[vc]:
		inj.rstats.Deduped++ // already delivered: a wire dup or a spurious retransmit
	case f.seq > inj.expect[vc]:
		off := f.seq - inj.expect[vc]
		if off >= uint64(len(h.pkts)) {
			h.grow(off)
		}
		i := (h.head + int(off)) & (len(h.pkts) - 1)
		if h.pkts[i] != nil {
			inj.rstats.Deduped++
		} else {
			inj.rstats.Buffered++
			h.pkts[i] = f.pkt
		}
	default:
		inj.deliver(vc, f.pkt)
		inj.expect[vc]++
		for len(h.pkts) > 0 {
			h.head = (h.head + 1) & (len(h.pkts) - 1)
			pkt := h.pkts[h.head]
			if pkt == nil {
				break
			}
			h.pkts[h.head] = nil
			inj.deliver(vc, pkt)
			inj.expect[vc]++
		}
	}
	// Cumulative acknowledgement travels the reverse control channel,
	// modeled as a reliable signal with the link's propagation delay.
	upTo := inj.expect[vc]
	inj.l.rev.Send(inj.l.cfg.PropDelay, func() { inj.ack(vc, upTo) })
}

// grow enlarges the reorder buffer to hold the frame off slots past the
// next expected one, keeping every held frame at its offset from slot 0.
func (h *heldWindow) grow(off uint64) {
	size := max(len(h.pkts), 4)
	for uint64(size) <= off {
		size *= 2
	}
	pkts := make([]*packet.Packet, size)
	k := copy(pkts, h.pkts[h.head:])
	copy(pkts[k:], h.pkts[:h.head])
	h.pkts, h.head = pkts, 0
}

// deliver hands an in-order, exactly-once packet to the link's arrived
// queue — the same path the fault-free wire uses, so consumers are
// unchanged.
func (inj *injector) deliver(vc packet.VC, pkt *packet.Packet) {
	inj.l.push(vc, pkt)
}

// ack processes a cumulative acknowledgement: every frame below upTo is
// released and its retransmission timer canceled.
func (inj *injector) ack(vc packet.VC, upTo uint64) {
	for seq := inj.acked[vc]; seq < upTo; seq++ {
		s := inj.sent[vc].Pop()
		s.timer.Cancel()
		*s = arqSlot{retry: s.retry}
		inj.spare[vc] = append(inj.spare[vc], s)
	}
	if upTo > inj.acked[vc] {
		inj.acked[vc] = upTo
	}
}

// unacked reports the number of frames awaiting acknowledgement (telemetry
// and quiescence checking).
func (inj *injector) unacked() int {
	n := 0
	for vc := range inj.sent {
		n += inj.sent[vc].Len()
	}
	return n
}
