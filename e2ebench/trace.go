package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a module, recorded by the benchmark around
// the module's public function. Spans of one frame share Trace (the frame's
// sequence number); Parent is the index of the enclosing span, or -1.
type span struct {
	Trace  uint64 `json:"trace"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps a traced run's spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	open  map[uint64]int // trace id → index of its open enclosing span
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0, open: map[uint64]int{}} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens an enclosing span for trace id; later spans of the same id
// name it as their parent until end closes it.
func (t *tracer) begin(id uint64, layer, name string, start int64) {
	t.mu.Lock()
	t.open[id] = len(t.spans)
	t.spans = append(t.spans, span{Trace: id, Layer: layer, Name: name, Start: start, End: -1, Parent: -1})
	t.mu.Unlock()
}

func (t *tracer) end(id uint64, end int64) {
	t.mu.Lock()
	if i, ok := t.open[id]; ok {
		t.spans[i].End = end
		delete(t.open, id)
	}
	t.mu.Unlock()
}

func (t *tracer) add(id uint64, layer, name string, start, end int64) {
	t.mu.Lock()
	parent := -1
	if i, ok := t.open[id]; ok {
		parent = i
	}
	t.spans = append(t.spans, span{Trace: id, Layer: layer, Name: name, Start: start, End: end, Parent: parent})
	t.mu.Unlock()
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// percentile is the nearest-rank p-quantile of sorted samples, with the
// number of samples above it (a tail percentile is trustworthy only with
// enough samples beyond it). It is NaN on no samples.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	k := int(math.Ceil(p * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return sorted[k-1], n - k
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of an unsorted sample (mean of the middle pair for even counts).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sinceDue returns, for frames [from, to), the time in ms from each frame's
// due time to the stamp `at` (its covering ack), so a stall delays every
// frame queued behind it, whenever each was actually written.
func sinceDue(due, at []int64, from, to int) []float64 {
	out := make([]float64, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, float64(at[i]-due[i])/1e6)
	}
	return out
}

// rowLags returns the ms from the due time of each row's closing frame to
// the row's arrival, for rows whose closing frame lies in [from, to).
// closeAt comes from the oracle: the frame whose push emitted the row.
func rowLags(closeAt [][]int32, arrive [][]int64, due []int64, from, to int) []float64 {
	var out []float64
	for q := range closeAt {
		for c, f := range closeAt[q] {
			if int(f) < from || int(f) >= to || c >= len(arrive[q]) {
				continue
			}
			out = append(out, float64(arrive[q][c]-due[f])/1e6)
		}
	}
	return out
}
