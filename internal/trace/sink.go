package trace

// Sink consumes the canonical merged event stream one event at a time.
// The streaming trace pipeline (WindowedLog) feeds each drained event to
// every attached sink in canonical (At, Node, per-node order) order, so
// a sink sees the whole run's stream without the run ever materializing
// it.
//
// *EventLog implements Sink; attaching one retains the full stream, for
// debugging or for the batch checkers the differential tests run.
type Sink interface {
	Append(Event)
}

// Advancer is implemented by sinks that act on watermarks: after a
// drain, the pipeline calls Advance(safe) to promise that every event
// with At < safe has been delivered and no later event will precede
// safe. Online checkers use this to decide (and garbage-collect) closed
// history prefixes.
type Advancer interface {
	Advance(safe int64)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// Append implements Sink.
func (f SinkFunc) Append(e Event) { f(e) }
