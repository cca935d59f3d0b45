package sim

// msgQueue is the engine's inbox: a 4-ary min-heap of cross-entity
// messages ordered by (time, channel id, channel sequence). It stores
// xmsg values directly — no container/heap interface boxing, so pushing
// and popping a message allocates nothing.
//
// Batched cross-shard delivery appends whole per-shard-pair slices with
// absorb, which defers restoring the heap property to a single O(n)
// rebuild at the barrier (fix) instead of paying a sift per message.
type msgQueue struct {
	a     []xmsg
	dirty bool // absorbed batches pending a rebuild
}

//tgvet:noalloc
func (q *msgQueue) len() int { return len(q.a) }

// less orders messages by (at, chid, seq) — build-time identities only,
// which is what makes delivery order shard-invariant. The (chid, seq)
// pair is pre-packed into one key word, so the tiebreak is one compare.
//
//tgvet:noalloc
func msgBefore(a, b xmsg) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.key < b.key
}

//tgvet:noalloc
func (q *msgQueue) push(m xmsg) {
	if q.dirty {
		q.fix()
	}
	q.a = append(q.a, m) //tgvet:allow noalloc(heap growth doubles the backing array; steady state reuses it)
	a := q.a
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !msgBefore(m, a[p]) {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = m
}

//tgvet:noalloc
func (q *msgQueue) peek() (xmsg, bool) {
	if q.dirty {
		q.fix()
	}
	if len(q.a) == 0 {
		return xmsg{}, false
	}
	return q.a[0], true
}

//tgvet:noalloc
func (q *msgQueue) pop() xmsg {
	if q.dirty {
		q.fix()
	}
	a := q.a
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = xmsg{}
	q.a = a[:n]
	if n > 1 {
		q.down(0)
	}
	return top
}

//tgvet:noalloc
func (q *msgQueue) down(i int) {
	a := q.a
	n := len(a)
	e := a[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if msgBefore(a[j], a[m]) {
				m = j
			}
		}
		if !msgBefore(a[m], e) {
			break
		}
		a[i] = a[m]
		i = m
	}
	a[i] = e
}

// absorb appends a batch of messages without restoring heap order; the
// next peek/pop/push pays one O(n) rebuild. Only called at a barrier,
// when no shard is executing.
//
//tgvet:noalloc
func (q *msgQueue) absorb(batch []xmsg) {
	q.a = append(q.a, batch...) //tgvet:allow noalloc(batch absorption grows the inbox once; the array is reused across rounds)
	q.dirty = true
}

// fix rebuilds the heap property after absorbed batches. The n>1 guard
// mirrors heap4.compact: (0-2)/4 truncates to 0, so an empty queue would
// otherwise sift a phantom root.
//
//tgvet:noalloc
func (q *msgQueue) fix() {
	q.dirty = false
	if len(q.a) > 1 {
		for i := (len(q.a) - 2) / 4; i >= 0; i-- {
			q.down(i)
		}
	}
}
