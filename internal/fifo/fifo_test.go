package fifo

import "testing"

// TestRingMatchesSlice drives a Ring and a plain slice queue with the same
// interleaving of pushes and pops, across several wrap-arounds and
// growths, and requires identical output.
func TestRingMatchesSlice(t *testing.T) {
	var r Ring[int]
	var ref []int
	next := 0
	// A deterministic push/pop pattern whose occupancy rises, falls to
	// zero and rises again past each earlier peak.
	for round := 0; round < 6; round++ {
		for i := 0; i < 3<<round; i++ {
			r.Push(next)
			ref = append(ref, next)
			next++
			if i%3 == 2 {
				if got, want := r.Pop(), ref[0]; got != want {
					t.Fatalf("round %d: Pop() = %d, want %d", round, got, want)
				}
				ref = ref[1:]
			}
		}
		for len(ref) > 0 {
			if r.Len() != len(ref) {
				t.Fatalf("round %d: Len() = %d, want %d", round, r.Len(), len(ref))
			}
			if got, want := r.Pop(), ref[0]; got != want {
				t.Fatalf("round %d: Pop() = %d, want %d", round, got, want)
			}
			ref = ref[1:]
		}
	}
	if r.Len() != 0 {
		t.Fatalf("Len() = %d after draining", r.Len())
	}
}

// TestRingStorageBoundedByPeak: a queue that never holds more than k
// elements keeps a buffer of at most the next power of two above k, no
// matter how many elements pass through it.
func TestRingStorageBoundedByPeak(t *testing.T) {
	var r Ring[*int]
	x := new(int)
	for i := 0; i < 5; i++ {
		r.Push(x)
	}
	for i := 0; i < 100000; i++ {
		r.Push(x)
		r.Pop()
	}
	if cap(r.buf) > 8 {
		t.Errorf("buffer grew to %d slots for a peak of 6 elements", cap(r.buf))
	}
	for r.Len() > 0 {
		r.Pop()
	}
	for i, p := range r.buf[:cap(r.buf)] {
		if p != nil {
			t.Errorf("slot %d still holds a reference after Pop", i)
		}
	}
}

// TestRingPopEmptyPanics: popping an empty queue is a caller bug.
func TestRingPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pop on an empty Ring did not panic")
		}
	}()
	var r Ring[int]
	r.Pop()
}

// TestRingPushPopAllocs: a warmed ring pushes and pops without
// allocating.
func TestRingPushPopAllocs(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 16; i++ {
		r.Push(i)
	}
	if avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 16; i++ {
			r.Pop()
			r.Push(i)
		}
	}); avg != 0 {
		t.Errorf("push/pop: %.2f allocs/run, want 0", avg)
	}
}
