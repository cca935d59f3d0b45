// Package fifo provides Ring, the FIFO queue the hardware models use for
// their packet and work queues.
package fifo

// Ring is a first-in first-out queue on a power-of-two ring buffer. Push
// and Pop are O(1); the buffer doubles when full and is never shrunk, so
// a queue's storage is bounded by its peak occupancy, however long it
// runs. The zero Ring is empty and ready to use.
type Ring[T any] struct {
	// buf[:cap(buf)] is the ring buffer, with cap(buf) zero or a power of
	// two, and len(buf) is the number of queued elements: a Ring is one
	// word wider than a slice, which matters in the per-VC arrays of the
	// link and board models.
	buf  []T
	head int // index of the oldest element in buf[:cap(buf)]
}

// Len reports the number of queued elements.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Push appends v at the tail.
func (r *Ring[T]) Push(v T) {
	n := len(r.buf)
	if n == cap(r.buf) {
		r.grow()
	}
	r.buf = r.buf[:n+1]
	r.buf[:cap(r.buf)][(r.head+n)&(cap(r.buf)-1)] = v
}

// Pop removes and returns the oldest element. It panics on an empty
// queue.
func (r *Ring[T]) Pop() T {
	n := len(r.buf)
	if n == 0 {
		panic("fifo: Pop from an empty Ring")
	}
	ring := r.buf[:cap(r.buf)]
	v := ring[r.head]
	var zero T
	ring[r.head] = zero // drop the reference for the collector
	r.head = (r.head + 1) & (len(ring) - 1)
	r.buf = r.buf[:n-1]
	return v
}

// grow doubles the buffer, moving the queued elements to its front in
// FIFO order.
func (r *Ring[T]) grow() {
	ring := r.buf[:cap(r.buf)]
	buf := make([]T, len(r.buf), max(2*len(ring), 1))
	k := copy(buf, ring[r.head:])
	copy(buf[k:], ring[:r.head])
	r.buf, r.head = buf, 0
}
