//go:build go1.23

// The build line, not a go.mod bump, is what lets this file use iter.Pull:
// it raises the language version of this one file to go1.23 while the
// module stays at go 1.22, so the nested benchmark module that replaces
// telegraphos with this tree keeps building without a go.mod update.

package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulation process: a coroutine that the engine resumes with
// one direct switch per wake and that hands control straight back with
// one direct switch per park. At most one process (or the engine loop)
// executes at a time, so process code may freely touch shared simulation
// state without locks, and every run is deterministic. A process runs on
// whichever thread resumes it — the engine loop or a shard worker — and
// never on a thread of its own.
//
// Process bodies receive their *Proc and may call the blocking primitives
// Sleep, Hold and the waiting methods on Future, Queue, Semaphore, etc.
// Those primitives must only be called from within the process's own body.
type Proc struct {
	eng    *Engine
	name   string
	next   func() (struct{}, bool) // engine -> proc: resume until the next park or the end
	yield  func(struct{}) bool     // proc -> engine: park
	wakeFn func()                  // prebound p.wake: one closure per process, not per wakeup
	daemon bool
	done   bool
}

// Spawn starts fn as a new process at the current simulated time.
// The engine's Run reports ErrStalled if any non-daemon process is still
// blocked when the event queue drains.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	return e.spawn(name, fn, false)
}

// SpawnDaemon starts a process whose permanent blocking does not count as a
// stall — use it for server loops (HIB engines, switch ports) that park on
// empty queues forever once the workload finishes.
func (e *Engine) SpawnDaemon(name string, fn func(*Proc)) *Proc {
	return e.spawn(name, fn, true)
}

func (e *Engine) spawn(name string, fn func(*Proc), daemon bool) *Proc {
	p := &Proc{eng: e, name: name, daemon: daemon}
	p.wakeFn = p.wake
	if !daemon {
		e.alive++
	}
	// Nothing stops a process from outside, so Pull's stop goes unused.
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		goexit := true // cleared once fn returns or panics
		defer func() {
			if r := recover(); r != nil {
				goexit = false
				e.fail(p.name, r)
			} else if goexit {
				e.failGoexit(p.name)
			}
			p.done = true
			if !p.daemon {
				e.alive--
			}
			if goexit {
				// runtime.Goexit is unwinding the body. Letting it finish
				// would make iter.Pull re-raise it in whichever goroutine
				// resumed the process; park for good instead, so control
				// returns to the engine, which sees the failure and stops.
				yield(struct{}{})
			}
		}()
		fn(p)
		goexit = false
	})
	e.Schedule(0, p.wakeFn)
	return p
}

// Engine returns the engine the process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Now reports the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }

// wake switches from the engine loop to the process and returns when the
// process parks again or finishes. It runs as an event callback. The done
// check also keeps a body that parked for good during runtime.Goexit from
// being resumed, which would let the Goexit escape into the caller.
func (p *Proc) wake() {
	if p.done {
		return
	}
	p.next()
}

// park switches back to the engine loop and returns at the next wake.
// It must be called from the process's own body.
func (p *Proc) park() {
	p.yield(struct{}{})
}

// Sleep suspends the process for d nanoseconds of simulated time.
func (p *Proc) Sleep(d Time) {
	if d <= 0 {
		// Even a zero-length sleep yields: the process re-runs after all
		// events already scheduled for this instant.
		d = 0
	}
	p.eng.Schedule(d, p.wakeFn) //tgvet:allow eventdrop(a sleep timer always fires: the process parks until this wake and holds no cancel path)
	p.park()
}

// SleepUntil suspends the process until absolute simulated time t
// (returning immediately after a yield if t is not in the future).
func (p *Proc) SleepUntil(t Time) {
	p.eng.At(t, p.wakeFn) //tgvet:allow eventdrop(a sleep timer always fires: the process parks until this wake and holds no cancel path)
	p.park()
}

// Yield lets every event already scheduled for the current instant run
// before the process continues.
func (p *Proc) Yield() { p.Sleep(0) }

// Panicf aborts the simulation with a formatted process error.
func (p *Proc) Panicf(format string, args ...interface{}) {
	panic(fmt.Sprintf(format, args...))
}
