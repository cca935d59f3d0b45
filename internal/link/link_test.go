package link

import (
	"testing"

	"telegraphos/internal/packet"
	"telegraphos/internal/sim"
)

func testCfg() Config {
	return Config{PropDelay: 10, WordTime: 30, BufPackets: 2}
}

func TestInOrderDelivery(t *testing.T) {
	e := sim.NewEngine(1)
	l := New(e, "t", testCfg())
	const n = 20
	var got []uint64
	e.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			l.Send(p, &packet.Packet{Type: packet.WriteReq, Val: uint64(i)})
		}
	})
	e.SpawnDaemon("receiver", func(p *sim.Proc) {
		for {
			pkt := l.Recv(p, packet.VCRequest)
			got = append(got, pkt.Val)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("received %d packets, want %d", len(got), n)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("out-of-order delivery: %v", got)
		}
	}
}

func TestTransferTiming(t *testing.T) {
	e := sim.NewEngine(1)
	l := New(e, "t", testCfg())
	var recvAt sim.Time
	e.Spawn("sender", func(p *sim.Proc) {
		l.Send(p, &packet.Packet{Type: packet.WriteReq}) // header only: 40 B = 5 words
	})
	e.Spawn("receiver", func(p *sim.Proc) {
		l.Recv(p, packet.VCRequest)
		recvAt = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 5 words * 30 ns + 10 ns propagation = 160 ns.
	if recvAt != 160 {
		t.Fatalf("packet arrived at %v, want 160ns", recvAt)
	}
}

func TestBackPressureBlocksSender(t *testing.T) {
	e := sim.NewEngine(1)
	l := New(e, "t", testCfg()) // 2 credits
	var thirdSendDone sim.Time
	e.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			l.Send(p, &packet.Packet{Type: packet.WriteReq})
		}
		thirdSendDone = p.Now()
	})
	e.Spawn("receiver", func(p *sim.Proc) {
		p.Sleep(10000) // hold buffers: no credits returned until t=10000
		for i := 0; i < 3; i++ {
			l.Recv(p, packet.VCRequest)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if thirdSendDone < 10000 {
		t.Fatalf("third send completed at %v; back-pressure should stall it past 10000", thirdSendDone)
	}
}

func TestVCIsolation(t *testing.T) {
	// A full request VC must not block the reply VC (deadlock avoidance).
	e := sim.NewEngine(1)
	l := New(e, "t", testCfg())
	var replyAt sim.Time
	e.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 2; i++ { // fill request VC credits
			l.Send(p, &packet.Packet{Type: packet.WriteReq})
		}
		l.Send(p, &packet.Packet{Type: packet.ReadReply}) // must still go through
	})
	e.Spawn("replyReceiver", func(p *sim.Proc) {
		l.Recv(p, packet.VCReply)
		replyAt = p.Now()
	})
	e.SpawnDaemon("requestDrainLater", func(p *sim.Proc) {
		p.Sleep(1_000_000)
		for {
			l.Recv(p, packet.VCRequest)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if replyAt == 0 || replyAt >= 1_000_000 {
		t.Fatalf("reply stuck behind full request VC: arrived at %v", replyAt)
	}
}

func TestPipelinedThroughput(t *testing.T) {
	// A long stream should complete at roughly wire rate: the link is the
	// bottleneck, not per-packet round trips.
	e := sim.NewEngine(1)
	l := New(e, "t", testCfg())
	const n = 100
	var done sim.Time
	e.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			l.Send(p, &packet.Packet{Type: packet.WriteReq})
		}
	})
	e.Spawn("receiver", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			l.Recv(p, packet.VCRequest)
		}
		done = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	perPacket := 5 * sim.Time(30) // 5 words * WordTime
	want := sim.Time(n)*perPacket + 10
	if done != want {
		t.Fatalf("stream finished at %v, want wire-rate %v", done, want)
	}
}

func TestTryRecvAndCounters(t *testing.T) {
	e := sim.NewEngine(1)
	l := New(e, "t", testCfg())
	if _, ok := l.TryRecv(packet.VCRequest); ok {
		t.Fatal("TryRecv on empty link succeeded")
	}
	e.Spawn("sender", func(p *sim.Proc) {
		l.Send(p, &packet.Packet{Type: packet.WriteReq})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if l.Queued(packet.VCRequest) != 1 {
		t.Fatalf("Queued = %d", l.Queued(packet.VCRequest))
	}
	pkt, ok := l.TryRecv(packet.VCRequest)
	if !ok || pkt.Type != packet.WriteReq {
		t.Fatal("TryRecv failed after delivery")
	}
	if l.SentPackets() != 1 || l.SentWords() != 5 {
		t.Fatalf("counters: %d pkts %d words", l.SentPackets(), l.SentWords())
	}
	if l.BusyTime() != 150 {
		t.Fatalf("busy = %v", l.BusyTime())
	}
	if l.Utilization() <= 0 {
		t.Fatal("utilization should be positive")
	}
	if l.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestDefaultConfigSane(t *testing.T) {
	c := DefaultConfig()
	if c.WordTime <= 0 || c.BufPackets <= 0 || c.PropDelay < 0 {
		t.Fatalf("bad default config %+v", c)
	}
	// Defensive clamps in New.
	l := New(sim.NewEngine(1), "x", Config{})
	if l.Config().BufPackets != 1 || l.Config().WordTime != 1 {
		t.Fatalf("New did not clamp zero config: %+v", l.Config())
	}
}

// TestFaultyFrameAllocs gates the ARQ sublayer's per-frame cost: with a
// jitter-only fault plan, no frame is dropped, duplicated or reordered,
// so each frame allocates only its arrive closure (the frame crosses to
// the receiver inside it) and its ack closure (likewise back). Window
// slots, retransmission timers and the link's queues are reused once
// they have grown.
func TestFaultyFrameAllocs(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := testCfg()
	cfg.Faults = &FaultPlan{Seed: 1, JitterMax: 20}
	l := New(e, "t", cfg)
	pkts := make([]*packet.Packet, 64)
	for i := range pkts {
		pkts[i] = &packet.Packet{Type: packet.WriteReq, Val: uint64(i)}
	}
	received := 0
	l.SetNotify(packet.VCRequest, func() {
		for {
			if _, ok := l.TryRecv(packet.VCRequest); !ok {
				return
			}
			received++
		}
	})
	burst := func() {
		for _, pkt := range pkts {
			l.SendEv(pkt, nil)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		burst()
	}
	avg := testing.AllocsPerRun(20, burst)
	if want := 2 * float64(len(pkts)); avg > want {
		t.Errorf("%.1f allocs per burst of %d frames, want at most %.0f (arrive + ack closure per frame)", avg, len(pkts), want)
	}
	if fs := l.FaultStats(); fs.Total() != 0 || fs.Retransmits != 0 {
		t.Errorf("jitter-only plan injected faults or retransmitted: %+v", fs)
	}
	if received != 25*len(pkts) || l.Unacked() != 0 {
		t.Errorf("received %d of %d frames, %d unacked", received, 25*len(pkts), l.Unacked())
	}
}
