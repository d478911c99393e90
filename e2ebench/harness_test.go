package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"forwarddecay/gsql"
	"forwarddecay/netgen"
)

func TestPercentileNearestRankWithCounts(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // unsorted on purpose
	}
	s := sortedCopy(xs)
	for _, c := range []struct {
		p          float64
		want       float64
		wantBeyond int
	}{
		{0.5, 500, 500},
		{0.99, 990, 10},
		{0.999, 999, 1},
		{1, 1000, 0},
		{0, 1, 999},
	} {
		v, beyond := percentile(s, c.p)
		if v != c.want || beyond != c.wantBeyond {
			t.Errorf("p%v = %v with %d beyond, want %v with %d", c.p, v, beyond, c.want, c.wantBeyond)
		}
	}
	if v, beyond := percentile([]float64{7}, 0.999); v != 7 || beyond != 0 {
		t.Errorf("single sample: %v, %d", v, beyond)
	}
	if v, beyond := percentile(nil, 0.5); !math.IsNaN(v) || beyond != 0 {
		t.Errorf("no samples: %v, %d", v, beyond)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
}

// A server that stalls must raise the latency of every frame due during
// the stall, measured from when each was due, not when it was written.
func TestLatencyCountsFromDueTime(t *testing.T) {
	const n = 60
	s := &served{ackAt: make([]int64, n), notify: make(chan struct{}, 1), t0: time.Now()}
	due := make([]int64, n)
	for i := range due {
		due[i] = int64(i) * int64(time.Millisecond)
	}
	// Frames 0..9 are acked one by one 0.5 ms after they are due; the
	// server then stalls and one cumulative ack at 60 ms covers 10..59.
	for i := 0; i < 10; i++ {
		s.ackAt[i] = due[i] + int64(500*time.Microsecond)
	}
	s.lastAck.Store(10)
	s.markAcked(n)
	stamp := s.ackAt[n-1]
	for i := 10; i < n; i++ {
		if s.ackAt[i] != stamp {
			t.Fatalf("frame %d stamped %d, want the covering ack's %d", i, s.ackAt[i], stamp)
		}
	}
	for i := 10; i < n; i++ {
		s.ackAt[i] = int64(60 * time.Millisecond)
	}
	lat := sinceDue(due, s.ackAt, 0, n)
	if lat[5] != 0.5 {
		t.Errorf("before the stall: %v ms, want 0.5", lat[5])
	}
	if lat[10] != 50 || lat[59] != 1 {
		t.Errorf("during the stall: frame 10 %v ms, frame 59 %v ms; want 50 and 1", lat[10], lat[59])
	}
	p50, _ := percentile(sortedCopy(lat[10:]), 0.5)
	if p50 < 20 {
		t.Errorf("stalled frames' median %v ms; a stall must delay the frames queued behind it", p50)
	}
	// A frame written 5 ms late and acked 1 ms after writing waited 6 ms.
	sent := []int64{int64(5 * time.Millisecond)}
	acked := []int64{int64(6 * time.Millisecond)}
	if got := sinceDue([]int64{0}, acked, 0, 1)[0]; got != 6 {
		t.Errorf("late frame: %v ms from due, want 6", got)
	}
	if got := sinceDue(sent, acked, 0, 1)[0]; got != 1 {
		t.Errorf("late frame: %v ms from send, want 1", got)
	}
}

// tinyStream seals frames of framePkts packets at 10 packets per stream
// second, so frame f holds stream seconds [25.6f, 25.6(f+1)).
func tinyStream(t *testing.T, frames int) *stream {
	t.Helper()
	w := &workload{packets: func(uint64) func() netgen.Packet {
		j := 0
		return func() netgen.Packet {
			p := netgen.Packet{Time: float64(j) / 10, DstIP: uint32(j % 5), Proto: netgen.ProtoTCP, Len: 100}
			j++
			return p
		}
	}}
	st, err := buildStream(w, 1, frames)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// A bucket's row is charged to the frame carrying the bucket's first later
// packet: bucket [0,60) closes at t=60 (packet 600, frame 2), bucket
// [60,120) at t=120 (packet 1200, frame 4); the open bucket never emits.
func TestBucketClosingFrame(t *testing.T) {
	st := tinyStream(t, 6)
	queries := []string{"select tb, count(*) from TCP group by time/60 as tb"}
	for _, shards := range []int{0, 2} {
		ip, err := oracle(queries, shards, st, st.n)
		if err != nil {
			t.Fatal(err)
		}
		if err := ip.close(); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(ip.closeAt[0]); got != "[2 4]" {
			t.Errorf("shards=%d: closing frames %s, want [2 4]", shards, got)
		}
		want := []gsql.Tuple{{gsql.Int(0), gsql.Int(600)}, {gsql.Int(1), gsql.Int(600)}}
		if err := sameRows(want, ip.rows[0]); err != nil {
			t.Errorf("shards=%d: %v", shards, err)
		}
		// Row lag is measured from the closing frame's due time.
		due := []int64{0, 10e6, 20e6, 30e6, 40e6, 50e6}
		arrive := [][]int64{{23e6, 47e6}}
		lags := rowLags(ip.closeAt, arrive, due, 0, 6)
		if fmt.Sprint(lags) != "[3 7]" {
			t.Errorf("shards=%d: row lags %v ms, want [3 7]", shards, lags)
		}
		if lags := rowLags(ip.closeAt, arrive, due, 3, 6); fmt.Sprint(lags) != "[7]" {
			t.Errorf("shards=%d: lags of rows closed in frames [3,6): %v, want [7]", shards, lags)
		}
	}
}

func TestProcParsing(t *testing.T) {
	stat := "4242 (gsql (x) y) S 1 4242 4242 0 -1 4194560 1234 0 0 0 150 50 0 0 20 0 9 0 100 2000000 3000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	cpu, err := parseStatCPU(stat)
	if err != nil || cpu != 2*time.Second {
		t.Errorf("stat CPU = %v, %v; want 2s (150+50 ticks)", cpu, err)
	}
	if _, err := parseStatCPU("4242 (gsql) S 1 2"); err == nil {
		t.Error("short stat line parsed")
	}
	status := "Name:\tgsql\nVmPeak:\t  900000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  102400 kB\n"
	mb, err := parseVmHWM(status)
	if err != nil || mb != 200 {
		t.Errorf("VmHWM = %v MB, %v; want 200", mb, err)
	}
	if _, err := parseVmHWM("Name:\tgsql\n"); err == nil {
		t.Error("status without VmHWM parsed")
	}
	// The live parsers agree with this process's own view.
	pid := fmt.Sprint(os.Getpid())
	if _, err := procCPU(pid); err != nil {
		t.Error(err)
	}
	if mb, err := procHWM(pid); err != nil || mb <= 0 {
		t.Errorf("own VmHWM %v MB, %v", mb, err)
	}
}

// iqrShare must match Python's statistics.quantiles(xs, n=4), which the
// benchmark's spread rule is stated in: for 1..10 the quartiles are 2.75
// and 8.25 around a median of 5.5.
func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := iqrShare(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want 1", got)
	}
}

func TestFingerprintMismatch(t *testing.T) {
	a := fingerprint{CPUModel: "x", NProc: 2, ServerGOMAXPROCS: 2, DriverGOMAXPROCS: 2, GoVersion: "go1", StateFS: "ext4", Commit: "a"}
	b := a
	b.Commit = "b"
	if m := a.mismatches(b); len(m) != 0 {
		t.Errorf("commits alone made results incomparable: %v", m)
	}
	b.NProc = 4
	if m := a.mismatches(b); len(m) != 1 || !strings.HasPrefix(m[0], "nproc") {
		t.Errorf("nproc change: %v", m)
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the benchmark
// reports, and each workload's line must state its fixed offered rate.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string }         `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		wl := workloads[w.Name]
		if wl == nil {
			t.Errorf("BENCHMARK.json workload %s is not defined", w.Name)
			continue
		}
		if rate := fmt.Sprintf("%.0f pkt/s", wl.rate); !strings.Contains(w.Why, rate) {
			t.Errorf("workload %s: why %q does not state its fixed rate %s", w.Name, w.Why, rate)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v; the harness defines %d workloads", names, len(workloads))
	}
	check := func(kind string, got []metricDef, want []metricDef) {
		sort.Slice(got, func(i, j int) bool { return got[i].name < got[j].name })
		sort.Slice(want, func(i, j int) bool { return want[i].name < want[j].name })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s metrics:\nBENCHMARK.json %v\nharness        %v", kind, got, want)
		}
	}
	var e2e, layer []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{name: m.Name, unit: m.Unit})
	}
	check("end_to_end", e2e, append([]metricDef(nil), endToEnd...))
	check("per_layer", layer, append([]metricDef(nil), perLayer...))
}
