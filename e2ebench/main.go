// Command e2ebench is the repository's end-to-end benchmark. It starts the
// real server (gsql -serve, built from ./cmd/gsql) as a child process,
// drives it over unix sockets through setup, a closed-loop saturation
// phase, a fixed-rate open loop and SIGKILL recoveries, checks every
// subscriber's rows against a serial in-process oracle, and prints the
// metrics BENCHMARK.json names. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"forwarddecay/gsql"
)

const (
	// setups is how many times a run sets the catalog up; setup_s is their
	// median.
	setups = 5
	// kills is how many SIGKILL recoveries a run makes; recover_s is their
	// median.
	kills = 5
	// subscribeDepth is how many subscribe requests are in flight on the
	// control connection at once, as a client resuming many subscriptions
	// would issue them.
	subscribeDepth = 16
	// killBurst is the frames written and acked just before each SIGKILL:
	// more than a checkpoint interval, so recovery replays WAL records.
	killBurst = 48
	// probeBurst is the frames the traced run's resume probe has in flight
	// when it SIGKILLs the child: more than one decay-fig2 bucket (469
	// frames), so a bucket's rows are emitted during the replay.
	probeBurst = 512
	// lateLimitMs invalidates the fixed-rate phase: past it the generator,
	// not the server, sets the latencies.
	lateLimitMs = 20
	// runLimit bounds a whole run; the child is killed past it.
	runLimit = 170 * time.Second
)

// liveChild is the running server process and runDir the run's scratch
// directory, for the watchdog and signal handler that end a run early.
var (
	liveChild atomic.Pointer[os.Process]
	runDir    atomic.Pointer[string]
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is what a run leaves in .bench_build/results for the compare step.
type record struct {
	Workload    string      `json:"workload"`
	Seed        uint64      `json:"seed"`
	Seconds     int         `json:"seconds"`
	Trace       bool        `json:"trace"`
	Fingerprint fingerprint `json:"fingerprint"`
	result
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "workload: catalog-1000, decay-fig2 or fanout-200")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds (closed loop plus fixed rate)")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	w := workloads[*name]
	if w == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: e2ebench --workload catalog-1000|decay-fig2|fanout-200 --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	abort := func(why string) {
		fmt.Fprintln(os.Stderr, "e2ebench:", why)
		if p := liveChild.Load(); p != nil {
			p.Kill()
			p.Wait()
		}
		if d := runDir.Load(); d != nil {
			os.RemoveAll(*d)
		}
		os.Exit(1)
	}
	time.AfterFunc(runLimit, func() { abort(fmt.Sprintf("run exceeded %v", runLimit)) })
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() { abort(fmt.Sprintf("stopped by %v", <-sig)) }()

	res, fp, err := run(w, *seed, *seconds, *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		if res == nil {
			os.Exit(1)
		}
		res.Correct = false
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("e2ebench %s seed %d trace %d: correct=%v attempted=%d failed=%d\n",
		w.name, *seed, *traceFlag, res.Correct, res.Attempted, res.Failed)
	fpJSON, _ := json.Marshal(fp)
	fmt.Printf("fingerprint %s\n", fpJSON)
	for _, k := range names {
		fmt.Printf("  %-34s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	rec := record{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *traceFlag == 1, Fingerprint: fp, result: *res}
	if err := saveRecord(rec); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: saving result:", err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func saveRecord(rec record) error {
	dir := filepath.Join(".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", rec.Workload, rec.Seed, btoi(rec.Trace), time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// run executes one workload end to end. A non-nil result with a non-nil
// error is a run that finished but failed its checks.
func run(w *workload, seed uint64, seconds int, trace bool) (*result, fingerprint, error) {
	dir := filepath.Join(".bench_build", "runs", fmt.Sprintf("%s-%d-%d", w.name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fingerprint{}, err
	}
	runDir.Store(&dir)
	defer os.RemoveAll(dir)
	procs := runtime.NumCPU()
	fp := hostFingerprint(dir, procs)

	// The closed loop is sized to take about 30% of the run at the
	// workload's sizing rate; the fixed-rate phase takes the other 70%.
	nClosed := int(math.Ceil(w.closedRate * 0.3 * float64(seconds) / framePkts))
	nFixed := int(w.rate * 0.7 * float64(seconds) / framePkts)
	n := 1 + nClosed + nFixed + kills*(killBurst+1)
	if trace {
		n += probeBurst
	}
	st, err := buildStream(w, seed, n)
	if err != nil {
		return nil, fp, err
	}

	s := &served{
		w: w, bin: filepath.Join(".bench_build", "bin", "gsql"), dir: dir, procs: procs, st: st,
		session: seed*0x9e3779b97f4a7c15 | 1,
		sentAt:  make([]int64, n), dueAt: make([]int64, n), ackAt: make([]int64, n),
		notify:   make(chan struct{}, 1),
		counters: map[string]uint64{},
		t0:       time.Now(),
	}
	defer s.stop()
	var tr *tracer
	if trace {
		tr = newTracer(s.t0)
	}

	// Phase 1: setup, several times on fresh state directories.
	var setupS []float64
	var stateDir string
	for k := 0; k < setups; k++ {
		if stateDir != "" {
			s.stop()
			os.RemoveAll(stateDir)
		}
		stateDir = filepath.Join(dir, fmt.Sprintf("state%d", k))
		d, err := s.setup(stateDir)
		if err != nil {
			return nil, fp, fmt.Errorf("setup: %w; %s", err, s.logTail())
		}
		setupS = append(setupS, d.Seconds())
	}
	progress("setup: %.3f s each (median of %d)", setupS, setups)

	// Phase 2: closed-loop saturation.
	sustained, err := s.closedLoop(1 + nClosed)
	if err != nil {
		return nil, fp, fmt.Errorf("closed loop: %w; %s", err, s.logTail())
	}
	progress("closed loop: %d frames, %.0f pkt/s", nClosed, sustained)
	time.Sleep(100 * time.Millisecond) // let the closed loop's rows drain

	// Phase 3: fixed-rate open loop.
	fx, err := s.fixedRate(nFixed)
	if err != nil {
		return nil, fp, fmt.Errorf("fixed rate: %w; %s", err, s.logTail())
	}
	late := sortedCopy(sinceDue(s.dueAt, s.sentAt, fx.from, fx.to))
	lateP99, _ := percentile(late, 0.99)
	lateP50, _ := percentile(late, 0.5)
	progress("fixed rate: %d frames at %.0f pkt/s, server CPU %v, driver CPU %v, generator late p50 %.3f ms p99 %.3f ms",
		fx.to-fx.from, w.rate, fx.serverCPU, fx.selfCPU, lateP50, lateP99)
	if lateP99 > lateLimitMs {
		return nil, fp, fmt.Errorf("fixed-rate phase invalid: generator late p99 %.2f ms exceeds %d ms", lateP99, lateLimitMs)
	}
	time.Sleep(200 * time.Millisecond) // rows closed by the phase's last frames arrive before the first kill

	// Phase 4: kill and recover.
	var recoverS []float64
	for k := 0; k < kills; k++ {
		d, err := s.killRecover(stateDir, killBurst)
		if err != nil {
			return nil, fp, fmt.Errorf("recover %d: %w; %s", k+1, err, s.logTail())
		}
		recoverS = append(recoverS, d.Seconds())
	}
	sent := s.next
	progress("recover: %.3f s each", recoverS)

	// Oracle (or, traced, the per-layer passes whose listener pass is the
	// oracle), then drain the subscriptions and check them.
	var ip *inproc
	var lg *ledger
	if trace {
		lg, err = traced(w, st, sent, dir, tr)
		if err == nil {
			ip = lg.serial
			if w.shards > 0 {
				ip = lg.sharded
			}
		}
	} else {
		ip, err = oracle(w.queries, w.shards, st, sent)
	}
	if err != nil {
		return nil, fp, err
	}
	want := make([]int, len(ip.rows))
	expected := 0
	for i, rows := range ip.rows {
		want[i] = len(rows)
		expected += len(rows)
	}
	progress("oracle: %d frames, %d rows", sent, expected)
	drainErr := s.awaitRows(want, 30*time.Second)
	if err := s.stats(); err != nil {
		return nil, fp, err
	}
	// Rows held now are the checked stream; the probe's frames add more.
	held := make([]int, len(s.subs))
	for i, sub := range s.subs {
		held[i] = int(sub.n.Load())
	}
	var resumeGap uint64
	if trace {
		if resumeGap, err = s.resumeGap(stateDir, probeBurst); err != nil {
			return nil, fp, fmt.Errorf("resume probe: %w; %s", err, s.logTail())
		}
	}
	s.stop()

	res := &result{Attempted: int64(sent + expected)}
	var problems []string
	if drainErr != nil {
		problems = append(problems, drainErr.Error())
	}
	for i, sub := range s.subs {
		if sub.lost != nil {
			res.Failed++
			problems = append(problems, fmt.Sprintf("query %d subscription terminated: %v", s.ids[i], sub.lost))
		}
		res.Failed += int64(sub.gapRows + sub.skipped)
		got := sub.rows[:held[i]]
		if len(got) < want[i] {
			res.Failed += int64(want[i] - len(got))
		}
		if err := sameRows(ip.rows[i], got); err != nil {
			problems = append(problems, fmt.Sprintf("query %d: %v", s.ids[i], err))
		}
	}
	unexpected := s.counters["server_restarts"] + s.counters["server_wedges"] + s.counters["server_rows_shed"]
	res.Failed += int64(unexpected)
	res.Correct = len(problems) == 0 && res.Failed == 0
	if len(problems) > 3 {
		problems = append(problems[:3], fmt.Sprintf("... and %d more", len(problems)-3))
	}

	arrive := make([][]int64, len(s.subs))
	for i, sub := range s.subs {
		arrive[i] = sub.arrive
	}
	acks := sortedCopy(sinceDue(s.dueAt, s.ackAt, fx.from, fx.to))
	lags := sortedCopy(rowLags(ip.closeAt, arrive, s.dueAt, fx.from, fx.to))
	fixedPkts := float64((fx.to - fx.from) * framePkts)
	cpuUs := float64(fx.serverCPU.Nanoseconds()) / 1e3 / fixedPkts
	ms := newMetricSet(trace)
	res.Metrics = ms.m
	put := ms.put

	if !trace {
		ackP50, _ := percentile(acks, 0.5)
		put("cpu_us_per_pkt", cpuUs)
		put("ack_p50_ms", ackP50)
		put("setup_s", median(setupS))
		put("recover_s", median(recoverS))
		put("rss_peak_mb", fx.rssMB)
	} else {
		put("e2e.sustained_pkts_per_s", sustained)
		lagP50, _ := percentile(lags, 0.5)
		put("e2e.row_lag_p50_ms", lagP50)
		pkts := float64(lg.pkts)
		us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / pkts }
		put("ingest.decode_ns_per_pkt", float64(lg.decode.Nanoseconds())/pkts)
		put("ingest.listener_self_us_per_pkt", us(lg.listenerSelf))
		put("gsql.push_us_per_pkt", us(lg.push))
		shardedUs := float64(lg.pushSharded.Nanoseconds()) / 1e3 / float64(lg.shardedPkts)
		put("gsql.push_sharded_us_per_pkt", shardedUs)
		put("gsql.shard_mismatch_cells", float64(mismatchCells(lg.serial.rows, lg.sharded.rows)))
		put("gsql.member_share", memberNs(w, lg.serial)/float64(lg.push.Nanoseconds()))
		st := lg.serial.m.MultiStats()
		put("gsql.classes", float64(st.Classes))
		put("gsql.shared_hit_ratio", st.SharedHitRatio())
		put("gsql.distinct_exprs", float64(st.DistinctExprs))
		put("gsql.rows_out_per_kpkt", float64(expected)/(pkts/1000))
		cuts := math.Max(1, float64(lg.ckptCuts))
		put("gsql.ckpt_ms", float64(lg.ckpt.Nanoseconds())/1e6/cuts)
		put("gsql.ckpt_bytes", float64(lg.ckptBytes)/cuts)
		put("gsql.attach_us", float64(lg.serial.attach.Nanoseconds())/1e3/float64(len(w.queries)))

		// The served counters cover every frame applied across the four
		// incarnations, resent frames included.
		put("server.checkpoints_per_mpkt", float64(s.counters["server_checkpoints"])/(pkts/1e6))
		put("server.rows_emitted", float64(s.counters["server_rows_emitted"]))
		put("server.rows_delivered", float64(s.counters["server_rows_delivered"]))
		put("server.rows_shed", float64(s.counters["server_rows_shed"]))
		put("server.gaps_reported", float64(s.counters["server_gaps_reported"]))
		put("server.restarts", float64(s.counters["server_restarts"]))
		put("server.wedges", float64(s.counters["server_wedges"]))
		put("server.attach_ms", median(s.attachTimes))
		put("server.resume_gap_rows", float64(resumeGap))
		pushUs := us(lg.push)
		if w.shards > 0 {
			pushUs = shardedUs
		}
		residual := cpuUs - us(lg.listenerSelf) - pushUs - us(lg.ckpt)
		put("server.residual_us_per_pkt", residual)
		put("server.residual_share", residual/cpuUs)

		ackP99, _ := percentile(acks, 0.99)
		ackP999, _ := percentile(acks, 0.999)
		lagP99, _ := percentile(lags, 0.99)
		put("tail.ack_p99_ms", ackP99)
		put("tail.ack_p999_ms", ackP999)
		put("tail.ack_samples", float64(len(acks)))
		put("tail.row_lag_p99_ms", lagP99)
		put("tail.row_lag_samples", float64(len(lags)))
		put("driver.late_p99_ms", lateP99)
		put("driver.cpu_us_per_pkt", float64(fx.selfCPU.Microseconds())/fixedPkts)

		for i := 0; i < sent; i++ {
			tr.add(uint64(i)+1, "served", "frame", s.dueAt[i], s.ackAt[i])
		}
		tdir := filepath.Join(".bench_build", "traces")
		if err := os.MkdirAll(tdir, 0o755); err != nil {
			return res, fp, err
		}
		if err := tr.write(filepath.Join(tdir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))); err != nil {
			return res, fp, err
		}
	}
	if err := ms.complete(); err != nil {
		return nil, fp, err
	}
	if !res.Correct {
		return res, fp, fmt.Errorf("output check failed: %s", strings.Join(problems, "; "))
	}
	return res, fp, nil
}

// memberNs estimates the serial run's time in member steps: each query's
// sampled private cost per folded tuple times its folds. A query without a
// WHERE folds every tuple; a filtered one folds what its count(*) column
// adds up to over the rows it emitted (the open bucket is not counted).
func memberNs(w *workload, ip *inproc) float64 {
	var total float64
	for i, qs := range ip.m.QueryStatsAll() {
		folds := float64(qs.Tuples)
		if w.countCol >= 0 {
			folds = 0
			for _, row := range ip.rows[i] {
				folds += float64(row[w.countCol].I)
			}
		}
		total += qs.NsPerTuple * folds
	}
	return total
}

// mismatchCells counts the cells that differ between two runs' rows, over
// the rows both emitted.
func mismatchCells(a, b [][]gsql.Tuple) int {
	n := 0
	for q := range a {
		for r := 0; r < len(a[q]) && r < len(b[q]); r++ {
			for c := range a[q][r] {
				if c >= len(b[q][r]) || !sameValue(a[q][r][c], b[q][r][c]) {
					n++
				}
			}
		}
	}
	return n
}

func sameValue(a, b gsql.Value) bool {
	return a.T == b.T && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// progress reports a finished phase on standard error.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench %s "+format+"\n", append([]any{time.Now().Format("15:04:05.000")}, args...)...)
}

// sameRows compares two row sequences bit for bit.
func sameRows(want, got []gsql.Tuple) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d rows, oracle has %d", len(got), len(want))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			return fmt.Errorf("row %d: %d columns, oracle has %d", i+1, len(got[i]), len(want[i]))
		}
		for j, v := range want[i] {
			if g := got[i][j]; !sameValue(v, g) {
				return fmt.Errorf("row %d column %d: %v, oracle has %v", i+1, j+1, g, v)
			}
		}
	}
	return nil
}

// logTail is the end of the current child's log, for error messages.
func (s *served) logTail() string {
	b, err := os.ReadFile(filepath.Join(s.dir, fmt.Sprintf("server%d.log", s.inc)))
	if err != nil {
		return "no server log"
	}
	if len(b) > 600 {
		b = b[len(b)-600:]
	}
	return "server log: " + strings.TrimSpace(string(b))
}
