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

// Proc is a simulation process: a body run on a coroutine that the engine
// resumes with one direct switch per wake and that hands control straight
// back with one direct switch per park. At most one process (or the engine
// loop) executes at a time, so process code may freely touch shared
// simulation state without locks, and every run is deterministic. A
// process runs on whichever thread resumes it — the engine loop or a shard
// worker — and never on a thread of its own.
//
// Coroutines outlive the processes they run. Spawn takes one from the
// engine's idle list when there is one and starts a new one (iter.Pull,
// which starts a goroutine) only when the list is empty. When a body
// returns, its coroutine parks on the idle list and the next spawn reuses
// it. A body that panics or ends in runtime.Goexit fails the run and its
// coroutine is never reused. RunUntil ends every idle coroutine before it
// returns, so no goroutine outlives a run on its behalf.
//
// Process bodies receive their *Proc and may call the blocking primitives
// Sleep, Hold and the waiting methods on Future, Queue, Semaphore, etc.
// Those primitives must only be called from within the process's own body.
type Proc struct {
	eng    *Engine
	name   string
	body   func(*Proc)
	next   func() (struct{}, bool) // engine -> coroutine: resume until the next park or the end
	yield  func(struct{}) bool     // coroutine -> engine: park
	wakeFn func()                  // prebound p.wake: one closure per process, not per wakeup
	daemon bool
	done   bool
}

// coro is an idle coroutine: resuming it with next runs the body of
// Engine.current; stop ends it.
type coro struct {
	next func() (struct{}, bool)
	stop func()
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
	p := &Proc{eng: e, name: name, body: fn, daemon: daemon}
	p.wakeFn = p.wake
	if !daemon {
		e.alive++
	}
	if n := len(e.idle); n > 0 {
		p.next = e.idle[n-1].next
		e.idle[n-1] = coro{}
		e.idle = e.idle[:n-1]
	} else {
		p.next = e.newCoro()
	}
	e.Schedule(0, p.wakeFn)
	return p
}

// newCoro starts a coroutine that runs the body of Engine.current each
// time it is resumed from idle, and returns its resume function.
func (e *Engine) newCoro() func() (struct{}, bool) {
	c := new(coro)
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		for {
			p := e.current
			p.yield = yield
			if !p.run() {
				return // the body panicked: the coroutine ends with it
			}
			e.idle = append(e.idle, *c)
			if !yield(struct{}{}) {
				return // ended by releaseIdle
			}
		}
	})
	return c.next
}

// run executes the process body on the calling coroutine and reports
// whether it returned normally, leaving the coroutine free for reuse.
func (p *Proc) run() (returned bool) {
	defer func() {
		e := p.eng
		goexit := false
		if !returned {
			if r := recover(); r != nil {
				e.fail(p.name, r)
			} else {
				goexit = true
				e.failGoexit(p.name)
			}
		}
		p.done = true
		p.body = nil
		if !p.daemon {
			e.alive--
		}
		if goexit {
			// runtime.Goexit is unwinding the body. Letting it finish
			// would make iter.Pull re-raise it in whichever goroutine
			// resumed the process; park for good instead, so control
			// returns to the engine, which sees the failure and stops.
			p.yield(struct{}{})
		}
	}()
	p.body(p)
	return true
}

// releaseIdle ends every idle coroutine.
func (e *Engine) releaseIdle() {
	for i, c := range e.idle {
		e.idle[i] = coro{}
		c.stop()
	}
	e.idle = e.idle[:0]
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
// check keeps a finished process's stale wake from resuming the coroutine,
// which may be idle or running another process by now, and keeps a body
// that parked for good during runtime.Goexit from being resumed, which
// would let the Goexit escape into the caller.
func (p *Proc) wake() {
	if p.done {
		return
	}
	p.eng.current = p
	p.next()
	p.eng.current = nil
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
