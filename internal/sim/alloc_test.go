package sim

// Allocation-budget gates for the engine's hot path. The contract is
// zero allocations per event in steady state: once the slot pool, the
// event heap, the inbox, and the staging buffers have grown to the
// workload's high-water mark, Schedule → fire → recycle and Chan.Send →
// deliver must not touch the allocator. These gates are ratchets — they
// pin today's zero so a regression (a closure capture, interface boxing,
// a map in the hot path) fails CI rather than silently eroding the
// benchmark numbers.

import "testing"

// measureAllocs runs f under AllocsPerRun and fails the test if the
// steady-state budget (exactly zero) is exceeded.
func measureAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(100, f); avg != 0 {
		t.Errorf("%s: %.2f allocs/run, want 0", name, avg)
	}
}

// TestScheduleFireRecycleAllocs gates the basic event cycle: schedule a
// batch onto a warmed engine, run it dry, repeat. Every event draws a
// pooled slot and returns it on fire.
func TestScheduleFireRecycleAllocs(t *testing.T) {
	e := NewEngine(1)
	fires := 0
	fn := func() { fires++ }
	// Warm-up: grow the pool and heap to the batch's high-water mark.
	for i := 0; i < 1024; i++ {
		e.Schedule(Time(i%32), fn)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	measureAllocs(t, "schedule/fire/recycle", func() {
		for i := 0; i < 256; i++ {
			e.Schedule(Time(i%32), fn)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if fires == 0 {
		t.Fatal("no events fired")
	}
}

// TestCancelRecycleAllocs gates the cancel path: canceled events leave
// the queue lazily and their slots recycle through the pool — including
// the bulk compaction sweep, which must reuse the heap's own storage.
func TestCancelRecycleAllocs(t *testing.T) {
	e := NewEngine(1)
	fires := 0
	fn := func() { fires++ }
	evs := make([]Event, 256)
	for i := 0; i < 1024; i++ {
		e.Schedule(Time(i%32), fn)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	measureAllocs(t, "cancel/recycle", func() {
		for i := range evs {
			evs[i] = e.Schedule(Time(i%32), fn)
		}
		// Cancel every other event: enough dead weight to trigger the
		// engine's compaction sweep (threshold 64) inside the gate.
		for i := 0; i < len(evs); i += 2 {
			evs[i].Cancel()
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestChanSendSameShardAllocs gates the same-shard message path: Send
// pushes straight into the destination inbox heap.
func TestChanSendSameShardAllocs(t *testing.T) {
	e := NewEngine(1)
	ch := NewChan(e, e, 1)
	n := 0
	fn := func() { n++ }
	for i := 0; i < 1024; i++ {
		ch.Send(Time(1+i%16), fn)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	measureAllocs(t, "chan send same-shard", func() {
		for i := 0; i < 256; i++ {
			ch.Send(Time(1+i%16), fn)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestChanSendCrossShardAllocs gates the cross-shard path end to end:
// staging on the source, batched hand-off at the barrier, inbox absorb
// and heap rebuild on the destination — a ping-pong between two shards
// so every round crosses the barrier in both directions.
func TestChanSendCrossShardAllocs(t *testing.T) {
	g := NewGroup(1, 2)
	a, b := g.Shard(0), g.Shard(1)
	ab := NewChan(a, b, 1)
	ba := NewChan(b, a, 1)
	rounds := 0
	var ping, pong func()
	ping = func() {
		if rounds == 0 {
			return
		}
		rounds--
		ab.Send(1, pong)
	}
	pong = func() { ba.Send(1, ping) }
	// Warm-up: the staging buffers, inboxes, and the group's round
	// scratch all reach steady-state capacity.
	rounds = 256
	ab.Send(1, pong)
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	measureAllocs(t, "chan send cross-shard", func() {
		rounds = 64
		ab.Send(1, pong)
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestProcSleepAllocs gates the process switch: a warmed Sleep → wake →
// park round trip schedules one pooled timer and transfers control to
// the process and back without touching the allocator.
func TestProcSleepAllocs(t *testing.T) {
	e := NewEngine(1)
	wakes := 0
	e.SpawnDaemon("sleeper", func(p *Proc) {
		for {
			p.Sleep(1)
			wakes++
		}
	})
	if err := e.RunUntil(1024); err != nil {
		t.Fatal(err)
	}
	measureAllocs(t, "proc sleep/wake/park", func() {
		if err := e.RunUntil(e.Now() + 256); err != nil {
			t.Fatal(err)
		}
	})
	if wakes == 0 {
		t.Fatal("process never woke")
	}
}

// BenchmarkProcSwitch reports the cost of one Sleep(1) round trip: the
// timer event fires, the engine resumes the process, and the process
// schedules its next timer and parks.
func BenchmarkProcSwitch(b *testing.B) {
	e := NewEngine(1)
	e.SpawnDaemon("sleeper", func(p *Proc) {
		for {
			p.Sleep(1)
		}
	})
	if err := e.RunUntil(1024); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.RunUntil(e.Now() + Time(b.N)); err != nil {
		b.Fatal(err)
	}
}

// TestSpawnAllocs gates the transient-process cycle: once a finished
// body's coroutine sits on the idle list, a spawn reuses it, so spawn →
// Sleep(1) → finish allocates only the Proc and its prebound wake.
func TestSpawnAllocs(t *testing.T) {
	e := NewEngine(1)
	transient := func(p *Proc) { p.Sleep(1) }
	avg := -1.0
	e.Spawn("driver", func(p *Proc) {
		cycle := func() {
			e.Spawn("transient", transient)
			p.Sleep(2)
		}
		// Warm-up: the first cycle starts the coroutine, later ones reuse it.
		for i := 0; i < 16; i++ {
			cycle()
		}
		avg = testing.AllocsPerRun(100, cycle)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if avg < 0 || avg > 2 {
		t.Errorf("spawn/sleep/finish: %.2f allocs/run, want at most 2", avg)
	}
}

// BenchmarkSpawn reports the cost of one transient process: spawn,
// Sleep(1), finish. One spawn is in flight at a time, so after the
// warm-up every spawn can reuse the previous body's coroutine.
func BenchmarkSpawn(b *testing.B) {
	const warm = 16
	e := NewEngine(1)
	transient := func(p *Proc) { p.Sleep(1) }
	n := 0
	var tick func()
	tick = func() {
		if n == warm {
			b.ReportAllocs()
			b.ResetTimer()
		}
		if n == warm+b.N {
			return
		}
		n++
		e.Spawn("transient", transient)
		e.Schedule(2, tick)
	}
	e.Schedule(0, tick)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// TestParallelRoundAllocs gates the parallel barrier: a warmed Run whose
// rounds run on the shard workers allocates nothing — not per round, and
// not to start and end the workers.
func TestParallelRoundAllocs(t *testing.T) {
	g := NewGroup(1, 4)
	var stop Time
	var tickers []func()
	for i := 0; i < g.Shards(); i++ {
		e := g.Shard(i)
		NewChan(e, g.Shard((i+1)%g.Shards()), 10)
		// Eight tickers a shard put 80 items in every 10 ns window, above
		// seqRoundWork, so every round after the first runs in parallel.
		for k := 0; k < 8; k++ {
			var tick func()
			tick = func() {
				if e.Now() < stop {
					e.Schedule(1, tick)
				}
			}
			tickers = append(tickers, tick)
		}
	}
	run := func() {
		stop = g.Now() + 200
		for k, tick := range tickers {
			g.Shard(k/8).Schedule(0, tick)
		}
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: pool, heaps, round scratch and the workers themselves
	_, before := g.Rounds()
	measureAllocs(t, "parallel rounds", run)
	if _, after := g.Rounds(); after-before < 100*15 {
		t.Fatalf("%d parallel rounds in 101 runs, want at least 15 a run", after-before)
	}
}
