// Package trace defines memory-access traces and synthetic generators in
// the spirit of the paper's trace-driven coherence studies ([22]) and the
// remote-paging study ([21]). Traces drive the page-access-counter and
// replication experiments (E9) and can be stored in a compact binary
// format for the tgtrace tool.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"telegraphos/internal/sim"
)

// Access is one shared-memory reference.
type Access struct {
	// Node is the issuing node's rank.
	Node int
	// Write distinguishes stores from loads.
	Write bool
	// Word is the shared-array word index.
	Word int
}

// Split partitions a trace into per-node subsequences (preserving each
// node's program order).
func Split(t []Access, nodes int) [][]Access {
	out := make([][]Access, nodes)
	for _, a := range t {
		if a.Node >= 0 && a.Node < nodes {
			out[a.Node] = append(out[a.Node], a)
		}
	}
	return out
}

// Stats summarizes a trace.
type Stats struct {
	Accesses int
	Writes   int
	Words    map[int]int // per-word access counts
}

// Summarize computes trace statistics.
func Summarize(t []Access) Stats {
	s := Stats{Words: make(map[int]int)}
	for _, a := range t {
		s.Accesses++
		if a.Write {
			s.Writes++
		}
		s.Words[a.Word]++
	}
	return s
}

// HotPage generates a trace where every node hammers a small hot region:
// with probability hotFrac an access lands in the first hotWords words,
// otherwise uniformly in [0, words). Accesses round-robin across nodes.
// The trace is a pure function of seed: it draws from a labeled
// sim.RNG stream, never from global math/rand, so the same seed yields
// the same trace on every platform and under any shard layout.
func HotPage(seed int64, n, nodes, words, hotWords int, hotFrac, writeFrac float64) []Access {
	return HotPageFrom(sim.ForkRNG(uint64(seed), "trace/hotpage"), n, nodes, words, hotWords, hotFrac, writeFrac)
}

// HotPageFrom is HotPage drawing from an injected stream, for callers
// that thread one scenario seed through many generators.
func HotPageFrom(rng *sim.RNG, n, nodes, words, hotWords int, hotFrac, writeFrac float64) []Access {
	t := make([]Access, n)
	for i := range t {
		w := rng.Intn(words)
		if rng.Float64() < hotFrac {
			w = rng.Intn(hotWords)
		}
		t[i] = Access{Node: i % nodes, Write: rng.Float64() < writeFrac, Word: w}
	}
	return t
}

// ProducerConsumer generates the paper's favourite pattern: node 0
// writes a block, every other node reads it, repeatedly.
func ProducerConsumer(iters, nodes, words int) []Access {
	var t []Access
	for it := 0; it < iters; it++ {
		for w := 0; w < words; w++ {
			t = append(t, Access{Node: 0, Write: true, Word: w})
		}
		for n := 1; n < nodes; n++ {
			for w := 0; w < words; w++ {
				t = append(t, Access{Node: n, Word: w})
			}
		}
	}
	return t
}

// Uniform generates uniformly random accesses. Like HotPage it is a
// pure function of seed, drawing from a labeled sim.RNG stream.
func Uniform(seed int64, n, nodes, words int, writeFrac float64) []Access {
	return UniformFrom(sim.ForkRNG(uint64(seed), "trace/uniform"), n, nodes, words, writeFrac)
}

// UniformFrom is Uniform drawing from an injected stream.
func UniformFrom(rng *sim.RNG, n, nodes, words int, writeFrac float64) []Access {
	t := make([]Access, n)
	for i := range t {
		t[i] = Access{Node: rng.Intn(nodes), Write: rng.Float64() < writeFrac, Word: rng.Intn(words)}
	}
	return t
}

// magic identifies the binary trace format.
var magic = [4]byte{'T', 'G', 'T', '1'}

// Field bounds of the packed TGT1 record: bit 0 is the write flag,
// bits 1..16 the node rank, bits 17..63 the word index.
const (
	maxTraceNode = 1<<16 - 1
	maxTraceWord = 1<<47 - 1
)

// Write stores a trace in the compact binary format. Accesses whose
// node or word does not fit the packed record are rejected with an
// error rather than silently truncated (a node rank > 65535 used to
// wrap, corrupting the trace; a negative word packed garbage bits).
func Write(w io.Writer, t []Access) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var buf [8]byte
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(t)))
	if _, err := bw.Write(buf[:4]); err != nil {
		return err
	}
	for i, a := range t {
		if a.Node < 0 || a.Node > maxTraceNode {
			return fmt.Errorf("trace: access %d: node %d does not fit the 16-bit rank field [0, %d]", i, a.Node, maxTraceNode)
		}
		if a.Word < 0 || int64(a.Word) > maxTraceWord {
			return fmt.Errorf("trace: access %d: word %d does not fit the 47-bit word field [0, %d]", i, a.Word, int64(maxTraceWord))
		}
		rec := uint64(a.Word)<<17 | uint64(a.Node)<<1
		if a.Write {
			rec |= 1
		}
		binary.LittleEndian.PutUint64(buf[:], rec)
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read loads a trace written by Write. The record count in the file is
// untrusted: the trace grows as its records are actually read, so a
// corrupt count yields a truncation error, never a huge up-front
// allocation.
func Read(r io.Reader) ([]Access, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, err
	}
	if m != magic {
		return nil, fmt.Errorf("trace: bad magic %q", m)
	}
	var buf [8]byte
	if _, err := io.ReadFull(br, buf[:4]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(buf[:4])
	t := make([]Access, 0, min(n, 1<<16))
	for i := uint32(0); i < n; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("trace: record %d of %d: %w", i, n, err)
		}
		rec := binary.LittleEndian.Uint64(buf[:])
		t = append(t, Access{
			Write: rec&1 != 0,
			Node:  int(rec >> 1 & 0xFFFF),
			Word:  int(rec >> 17),
		})
	}
	return t, nil
}
