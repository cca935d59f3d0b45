// Benchmarks regenerating every table and figure of the paper (one
// benchmark per artifact, wrapping the corresponding experiment), plus
// per-primitive micro-benchmarks and ablations of the design choices
// DESIGN.md calls out. All latencies reported via ReportMetric are
// *simulated* time; wall-clock ns/op measures the simulator itself.
//
// Run with: go test -bench=. -benchmem
package telegraphos_test

import (
	"testing"

	tg "telegraphos"
	"telegraphos/internal/experiments"
	"telegraphos/internal/packet"
	"telegraphos/internal/params"
	"telegraphos/internal/sim"
)

// benchExperiment wraps an experiment as a benchmark and asserts that
// the paper's shape holds on the final run.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	run := experiments.Get(id)
	if run == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	var r *experiments.Result
	for i := 0; i < b.N; i++ {
		r = run(experiments.Options{Seed: 1})
	}
	for _, row := range r.Rows {
		if !row.Match {
			b.Fatalf("%s: %s — paper %q, measured %q", id, row.Name, row.Paper, row.Measured)
		}
	}
}

// One benchmark per paper artifact (see DESIGN.md §4).
func BenchmarkE1LatencyTable(b *testing.B)        { benchExperiment(b, "E1") }  // §3.2 table
func BenchmarkE2WriteBatches(b *testing.B)        { benchExperiment(b, "E2") }  // §3.2 in-text
func BenchmarkE3GateCountTable(b *testing.B)      { benchExperiment(b, "E3") }  // Table 1
func BenchmarkE4Figure2Divergence(b *testing.B)   { benchExperiment(b, "E4") }  // Figure 2
func BenchmarkE5CounterAnomalies(b *testing.B)    { benchExperiment(b, "E5") }  // §2.3.2-3
func BenchmarkE6CounterCAMSizing(b *testing.B)    { benchExperiment(b, "E6") }  // §2.3.4
func BenchmarkE7FenceConsistency(b *testing.B)    { benchExperiment(b, "E7") }  // §2.3.5
func BenchmarkE8Galactica121(b *testing.B)        { benchExperiment(b, "E8") }  // §2.4
func BenchmarkE9AlarmReplication(b *testing.B)    { benchExperiment(b, "E9") }  // §2.2.6/[22]
func BenchmarkE10RemotePaging(b *testing.B)       { benchExperiment(b, "E10") } // §2.2.6/[21]
func BenchmarkE11Substrates(b *testing.B)         { benchExperiment(b, "E11") } // §1/§2.1
func BenchmarkE12UpdateVsInvalidate(b *testing.B) { benchExperiment(b, "E12") } // §2.3.6
func BenchmarkE13SwitchLoad(b *testing.B)         { benchExperiment(b, "E13") } // [16,17]
func BenchmarkE14LaunchCost(b *testing.B)         { benchExperiment(b, "E14") } // §2.2.4-5

// --- Per-primitive micro-benchmarks (simulated latency in the metric).

func BenchmarkRemoteWriteStream(b *testing.B) {
	var us float64
	for i := 0; i < b.N; i++ {
		c := tg.NewCluster(tg.WithNodes(2))
		x := c.AllocShared(1, 8)
		const ops = 2000
		c.Spawn(0, "w", func(ctx *tg.Ctx) {
			ctx.Store(x, 0)
			start := ctx.Now()
			for k := 0; k < ops; k++ {
				ctx.Store(x, uint64(k))
			}
			ctx.Fence()
			us = (ctx.Now() - start).Micros() / ops
		})
		if err := c.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(us, "sim-us/write")
}

func BenchmarkRemoteRead(b *testing.B) {
	var us float64
	for i := 0; i < b.N; i++ {
		c := tg.NewCluster(tg.WithNodes(2))
		x := c.AllocShared(1, 8)
		const ops = 500
		c.Spawn(0, "r", func(ctx *tg.Ctx) {
			ctx.Load(x)
			start := ctx.Now()
			for k := 0; k < ops; k++ {
				ctx.Load(x)
			}
			us = (ctx.Now() - start).Micros() / ops
		})
		if err := c.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(us, "sim-us/read")
}

func BenchmarkRemoteFetchAndInc(b *testing.B) {
	var us float64
	for i := 0; i < b.N; i++ {
		c := tg.NewCluster(tg.WithNodes(2))
		x := c.AllocShared(1, 8)
		const ops = 300
		c.Spawn(0, "a", func(ctx *tg.Ctx) {
			ctx.FetchAndInc(x)
			start := ctx.Now()
			for k := 0; k < ops; k++ {
				ctx.FetchAndInc(x)
			}
			us = (ctx.Now() - start).Micros() / ops
		})
		if err := c.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(us, "sim-us/atomic")
}

func BenchmarkRemoteCopyPage(b *testing.B) {
	var us float64
	for i := 0; i < b.N; i++ {
		c := tg.NewCluster(tg.WithNodes(2))
		src := c.AllocShared(1, 8192)
		dst := c.AllocShared(0, 8192)
		c.Spawn(0, "c", func(ctx *tg.Ctx) {
			start := ctx.Now()
			ctx.RemoteCopy(dst, src, 1024)
			ctx.Fence()
			us = (ctx.Now() - start).Micros()
		})
		if err := c.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(us, "sim-us/page-copy")
}

func BenchmarkUserLevelChannel(b *testing.B) {
	var us float64
	for i := 0; i < b.N; i++ {
		c := tg.NewCluster(tg.WithNodes(2), tg.WithPlacement(tg.PlacementMain))
		ch := c.NewChannel(1, 256)
		const msgs = 100
		c.Spawn(0, "p", func(ctx *tg.Ctx) {
			buf := make([]uint64, 16)
			for k := 0; k < msgs; k++ {
				ch.Send(ctx, buf)
			}
		})
		c.Spawn(1, "c", func(ctx *tg.Ctx) {
			start := ctx.Now()
			for k := 0; k < msgs; k++ {
				ch.Recv(ctx, 16)
			}
			us = (ctx.Now() - start).Micros() / msgs
		})
		if err := c.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(us, "sim-us/msg")
}

// --- Ablations (DESIGN.md §6).

// BenchmarkAblationWriteQueueDepth shows how the HIB's outgoing FIFO
// depth shapes the E2 burst behaviour: deeper queues absorb longer
// bursts at CPU issue rate.
func BenchmarkAblationWriteQueueDepth(b *testing.B) {
	for _, depth := range []int{1, 8, 32, 128} {
		b.Run(benchName("depth", depth), func(b *testing.B) {
			var us float64
			for i := 0; i < b.N; i++ {
				cfg := params.Default(2)
				cfg.Sizing.HIBWriteQueue = depth
				c := tg.NewCluster(tg.WithConfig(cfg))
				x := c.AllocShared(1, 8)
				c.Spawn(0, "w", func(ctx *tg.Ctx) {
					ctx.Store(x, 0)
					start := ctx.Now()
					for k := 0; k < 100; k++ {
						ctx.Store(x, uint64(k))
					}
					us = (ctx.Now() - start).Micros()
				})
				if err := c.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(us, "sim-us/100-writes")
		})
	}
}

// BenchmarkAblationPlacement compares the Telegraphos I (HIB board) and
// Telegraphos II (main memory) placements for local shared reads —
// the §2.2.1 trade-off.
func BenchmarkAblationPlacement(b *testing.B) {
	for _, pl := range []tg.Placement{tg.PlacementHIB, tg.PlacementMain} {
		pl := pl
		b.Run(pl.String(), func(b *testing.B) {
			var us float64
			for i := 0; i < b.N; i++ {
				c := tg.NewCluster(tg.WithNodes(2), tg.WithPlacement(pl))
				x := c.AllocShared(0, 8)
				const ops = 500
				c.Spawn(0, "r", func(ctx *tg.Ctx) {
					ctx.Load(x)
					start := ctx.Now()
					for k := 0; k < ops; k++ {
						ctx.Load(x)
					}
					us = (ctx.Now() - start).Micros() / ops
				})
				if err := c.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(us, "sim-us/local-shared-read")
		})
	}
}

// BenchmarkAblationLaunchPath compares the user-level special-operation
// launch with the OS-trap launch (§2.2.4 vs §2.2.5).
func BenchmarkAblationLaunchPath(b *testing.B) {
	run := func(b *testing.B, viaOS bool) {
		var us float64
		for i := 0; i < b.N; i++ {
			c := tg.NewCluster(tg.WithNodes(2))
			x := c.AllocShared(1, 8)
			const ops = 200
			c.Spawn(0, "a", func(ctx *tg.Ctx) {
				ctx.FetchAndInc(x)
				start := ctx.Now()
				for k := 0; k < ops; k++ {
					if viaOS {
						ctx.AtomicViaOS(packet.FetchAndInc, x, 0, 0)
					} else {
						ctx.FetchAndInc(x)
					}
				}
				us = (ctx.Now() - start).Micros() / ops
			})
			if err := c.Run(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(us, "sim-us/atomic")
	}
	b.Run("user-level", func(b *testing.B) { run(b, false) })
	b.Run("os-trap", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationCounterMode compares write throughput on a replicated
// page across the three pending-write counter configurations.
func BenchmarkAblationCounterMode(b *testing.B) {
	modes := []tg.CounterMode{tg.CountersOff, tg.CountersCached, tg.CountersInfinite}
	for _, m := range modes {
		m := m
		b.Run(m.String(), func(b *testing.B) {
			var us float64
			for i := 0; i < b.N; i++ {
				c := tg.NewCluster(tg.WithNodes(3))
				u := c.AttachUpdateCoherence(m)
				x := c.AllocShared(0, 4096)
				u.SharePage(x, 0, []int{0, 1, 2})
				const ops = 200
				c.Spawn(1, "w", func(ctx *tg.Ctx) {
					start := ctx.Now()
					for k := 0; k < ops; k++ {
						ctx.Store(x+tg.VAddr(8*(k%64)), uint64(k))
						ctx.Compute(2 * sim.Microsecond)
					}
					ctx.Fence()
					us = (ctx.Now() - start).Micros() / ops
				})
				if err := c.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(us, "sim-us/shared-write")
		})
	}
}

func benchName(prefix string, v int) string {
	return prefix + "-" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationChainHops measures remote-read latency as the number
// of switch hops between the two endpoints grows (the multi-switch
// ribbon-cable configuration of Figure 1).
func BenchmarkAblationChainHops(b *testing.B) {
	for _, far := range []int{1, 3, 7, 15} {
		far := far
		b.Run("nodes-apart-"+itoa(far), func(b *testing.B) {
			var us float64
			for i := 0; i < b.N; i++ {
				c := tg.NewCluster(tg.WithNodes(16), tg.WithTopology("chain"), tg.WithChainPerSwitch(2))
				x := c.AllocShared(tg.NodeID(far), 8)
				const ops = 100
				c.Spawn(0, "r", func(ctx *tg.Ctx) {
					ctx.Load(x)
					start := ctx.Now()
					for k := 0; k < ops; k++ {
						ctx.Load(x)
					}
					us = (ctx.Now() - start).Micros() / ops
				})
				if err := c.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(us, "sim-us/read")
		})
	}
}
