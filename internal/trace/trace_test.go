package trace

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
)

func TestHotPageShape(t *testing.T) {
	tr := HotPage(3, 10000, 4, 1000, 8, 0.9, 0.5)
	if len(tr) != 10000 {
		t.Fatal("length")
	}
	s := Summarize(tr)
	hot := 0
	for w := 0; w < 8; w++ {
		hot += s.Words[w]
	}
	if float64(hot)/float64(s.Accesses) < 0.8 {
		t.Fatalf("hot region only got %d/%d accesses", hot, s.Accesses)
	}
	if s.Writes < 4000 || s.Writes > 6000 {
		t.Fatalf("write fraction off: %d", s.Writes)
	}
}

func TestProducerConsumerTrace(t *testing.T) {
	tr := ProducerConsumer(2, 3, 4)
	// Per iteration: 4 producer writes + 2 consumers * 4 reads = 12.
	if len(tr) != 24 {
		t.Fatalf("length = %d, want 24", len(tr))
	}
	if !tr[0].Write || tr[0].Node != 0 {
		t.Fatal("trace must start with a producer write")
	}
	s := Summarize(tr)
	if s.Writes != 8 {
		t.Fatalf("writes = %d, want 8", s.Writes)
	}
}

func TestSplitPreservesOrder(t *testing.T) {
	tr := Uniform(1, 500, 3, 100, 0.3)
	parts := Split(tr, 3)
	total := 0
	for n, part := range parts {
		total += len(part)
		lastIdx := -1
		for _, a := range part {
			if a.Node != n {
				t.Fatal("wrong node in partition")
			}
			// Find in original after lastIdx to verify order.
			found := -1
			for i := lastIdx + 1; i < len(tr); i++ {
				if tr[i] == a {
					found = i
					break
				}
			}
			if found < 0 {
				t.Fatal("partition lost program order")
			}
			lastIdx = found
		}
	}
	if total != len(tr) {
		t.Fatalf("split lost accesses: %d of %d", total, len(tr))
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := Uniform(9, 300, 5, 1<<20, 0.4)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("round trip mismatch")
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(recs []struct {
		Node  uint16
		Write bool
		Word  uint32
	}) bool {
		tr := make([]Access, len(recs))
		for i, r := range recs {
			tr[i] = Access{Node: int(r.Node), Write: r.Write, Word: int(r.Word)}
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(tr) {
			return false
		}
		for i := range tr {
			if got[i] != tr[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// FuzzTraceRead checks that Read never panics on arbitrary bytes and
// that a decoded trace survives a Write round trip: it re-encodes to the
// bytes it was read from and reads back equal. The checked-in seed is
// the 8-byte file whose 2^32-1 record count used to crash the reader
// out of memory.
func FuzzTraceRead(f *testing.F) {
	var seed bytes.Buffer
	if err := Write(&seed, Uniform(1, 5, 3, 1<<20, 0.5)); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte("TGT1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, tr); err != nil {
			t.Fatalf("clean decode re-encode rejected: %v", err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("re-encode of %d accesses differs from its input", len(tr))
		}
		back, err := Read(&out)
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatalf("round trip of %d accesses read back different", len(tr))
		}
	})
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("XXXX\x00\x00\x00\x00"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}
