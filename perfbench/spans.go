package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced interval: a call into a layer, made by the
// benchmark's own code. Times are nanoseconds since the tracer started.
type span struct {
	start, end int64
	parent     int32 // index of the causing span, -1 for none
	op         int32 // op id, -1 for set-up
	name       uint16
}

// tracer keeps spans in memory while a run measures; they are written
// out when it ends. A nil tracer records nothing. The on switch marks the
// traced phase for instrumentation that sits in long-lived callbacks
// (the fleet's transports and handler wrapper).
type tracer struct {
	on     atomic.Bool
	t0     time.Time
	mu     sync.Mutex
	ids    map[string]uint16
	names  []string
	chunks [][]span // fixed-size chunks: growing never copies recorded spans
	n      int
}

const chunkBits = 16

// at returns span i; the caller holds mu.
func (t *tracer) at(i int) *span { return &t.chunks[i>>chunkBits][i&(1<<chunkBits-1)] }

// push appends a span and returns its index; the caller holds mu.
func (t *tracer) push(s span) int32 {
	if t.n>>chunkBits == len(t.chunks) {
		t.chunks = append(t.chunks, make([]span, 1<<chunkBits))
	}
	*t.at(t.n) = s
	t.n++
	return int32(t.n - 1)
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), ids: map[string]uint16{}}
}

func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// name interns a span name.
func (t *tracer) name(s string) uint16 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.ids[s]
	if !ok {
		id = uint16(len(t.names))
		t.ids[s] = id
		t.names = append(t.names, s)
	}
	return id
}

// now is the tracer clock.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its index (-1 when not recording).
func (t *tracer) begin(name uint16, parent, op int32) int32 {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.push(span{start: start, end: -1, parent: parent, op: op, name: name})
}

// end closes a span opened by begin.
func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.at(int(i)).end = end
	t.mu.Unlock()
}

// add records a finished span measured with now.
func (t *tracer) add(name uint16, parent, op int32, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.push(span{start: start, end: end, parent: parent, op: op, name: name})
	t.mu.Unlock()
}

// selfSeconds sums, per span name, each span's duration minus the part
// its child spans cover, over spans with op id >= minOp.
func (t *tracer) selfSeconds(minOp int32) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, t.n)
	for i := range t.n {
		if s := t.at(i); s.parent >= 0 && s.end >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]float64{}
	for i := range t.n {
		s := t.at(i)
		if s.op < minOp || s.end < 0 {
			continue
		}
		out[t.names[s.name]] += float64(s.end-s.start-child[i]) / 1e9
	}
	return out
}

// durations returns the durations in seconds of the named spans with op
// id >= minOp, in recording order.
func (t *tracer) durations(name string, minOp int32) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.ids[name]
	if !ok {
		return nil
	}
	var out []float64
	for i := range t.n {
		if s := t.at(i); s.name == id && s.op >= minOp && s.end >= 0 {
			out = append(out, float64(s.end-s.start)/1e9)
		}
	}
	return out
}

// writeTSV writes every span as gzip-compressed tab-separated lines:
// name, start_ns, end_ns, parent, op. It returns the span count.
func (t *tracer) writeTSV(path string) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(zw, 1<<16)
	fmt.Fprintln(bw, "name\tstart_ns\tend_ns\tparent\top")
	for i := range t.n {
		s := t.at(i)
		fmt.Fprintf(bw, "%s\t%d\t%d\t%d\t%d\n", t.names[s.name], s.start, s.end, s.parent, s.op)
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	if err := zw.Close(); err != nil {
		return 0, err
	}
	return t.n, f.Close()
}
