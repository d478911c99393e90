package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"forwarddecay/gsql"
	"forwarddecay/ingest"
	"forwarddecay/netgen"
	"forwarddecay/server"
)

// stream is the run's whole frame sequence, generated and sealed before
// any timed phase: frame i carries sequence number i+1. Every frame holds
// framePkts packets, so frames sit back to back at a fixed stride.
type stream struct {
	buf    []byte
	stride int
	n      int
}

func frameSize() int { return 4 + 8 + 1 + 8 + 4 + framePkts*netgen.PacketRecordSize }

func buildStream(w *workload, seed uint64, n int) (*stream, error) {
	src := w.packets(seed)
	st := &stream{stride: frameSize(), n: n}
	st.buf = make([]byte, 0, n*st.stride)
	pkts := make([]netgen.Packet, framePkts)
	for i := 0; i < n; i++ {
		for j := range pkts {
			pkts[j] = src()
		}
		st.buf = ingest.AppendData(st.buf, uint64(i+1), pkts)
	}
	if len(st.buf) != n*st.stride {
		return nil, fmt.Errorf("sealed frames are %d bytes, want %d", len(st.buf), n*st.stride)
	}
	return st, nil
}

func (st *stream) frame(i int) []byte { return st.buf[i*st.stride : (i+1)*st.stride] }

// child is one gsql -serve process.
type child struct {
	cmd      *exec.Cmd
	pid      string
	ctl, ing string
	log      *os.File
}

// subState is one subscription's received rows, kept across reconnects.
type subState struct {
	rows    []gsql.Tuple
	arrive  []int64 // ns since the run epoch
	last    uint64  // last cursor received
	n       atomic.Int64
	gapRows uint64
	skipped uint64 // cursors that never arrived before a later one
	lost    error  // a termination the benchmark did not cause
}

// served drives the real server: one ingest connection speaking the wire
// codec, one control connection carrying every attach, subscribe and the
// stats calls, and the child process's lifecycle.
type served struct {
	w       *workload
	bin     string
	dir     string
	procs   int
	st      *stream
	t0      time.Time
	session uint64

	// Per frame index, ns since t0. ackAt is written by the ack reader
	// before it publishes lastAck; read it only below lastAck.
	sentAt, dueAt, ackAt []int64
	lastAck              atomic.Int64
	notify               chan struct{}
	next                 int // next frame index to send

	srv       *child
	inc       int
	cl        *server.Client
	conn      net.Conn
	readerEnd chan struct{}

	ids     []uint32
	subs    []*subState
	subWG   sync.WaitGroup
	killing atomic.Bool
	// hold pauses every subscription reader while write-locked.
	hold sync.RWMutex

	attachTimes []float64 // ms per Client.Attach round trip
	counters    map[string]uint64
}

func (s *served) now() int64 { return int64(time.Since(s.t0)) }

func (s *served) startServer(stateDir string) error {
	s.inc++
	c := &child{
		ctl: "unix:" + filepath.Join(s.dir, fmt.Sprintf("c%d.sock", s.inc)),
		ing: "unix:" + filepath.Join(s.dir, fmt.Sprintf("i%d.sock", s.inc)),
	}
	log, err := os.Create(filepath.Join(s.dir, fmt.Sprintf("server%d.log", s.inc)))
	if err != nil {
		return err
	}
	c.log = log
	args := []string{"-serve", stateDir, "-control", c.ctl, "-listen", c.ing, "-http", "127.0.0.1:0"}
	if s.w.shards > 0 {
		args = append(args, "-shards", strconv.Itoa(s.w.shards))
	}
	c.cmd = exec.Command(s.bin, args...)
	c.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(s.procs))
	c.cmd.Stdout, c.cmd.Stderr = log, log
	if err := c.cmd.Start(); err != nil {
		log.Close()
		return fmt.Errorf("start server: %w", err)
	}
	c.pid = strconv.Itoa(c.cmd.Process.Pid)
	liveChild.Store(c.cmd.Process)
	s.srv = c
	return nil
}

// stop SIGKILLs the child, reaps it, and drops both connections, waiting
// for every reader. Subscription terminations it causes are not failures.
func (s *served) stop() {
	s.killing.Store(true)
	if s.srv != nil {
		s.srv.cmd.Process.Kill()
		s.srv.cmd.Wait()
		liveChild.Store(nil)
		s.srv.log.Close()
		s.srv = nil
	}
	if s.cl != nil {
		s.cl.Close()
		s.cl = nil
	}
	s.subWG.Wait()
	if s.conn != nil {
		s.conn.Close()
		<-s.readerEnd
		s.conn = nil
	}
	s.killing.Store(false)
}

// dialControl polls until the child's control socket accepts a session.
func (s *served) dialControl(deadline time.Time) error {
	for {
		cl, err := server.DialClient(s.srv.ctl, "", 5*time.Second)
		if err == nil {
			s.cl = cl
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("control dial: %w", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// dialIngest polls until the child's ingest socket accepts the session's
// hello, marks every frame the hello ack covers as acked, and starts the
// ack reader. It returns the server's last applied sequence number.
func (s *served) dialIngest(deadline time.Time) (uint64, error) {
	network, address := ingest.SplitAddr(s.srv.ing)
	var c net.Conn
	for {
		var err error
		c, err = net.DialTimeout(network, address, time.Second)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("ingest dial: %w", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := c.Write(ingest.AppendHello(nil, s.session)); err != nil {
		c.Close()
		return 0, fmt.Errorf("hello: %w", err)
	}
	fr := ingest.NewFrameReader(c, 0)
	c.SetReadDeadline(deadline)
	f, err := fr.ReadFrame()
	c.SetReadDeadline(time.Time{})
	if err != nil || f.Type != ingest.FrameAck {
		c.Close()
		return 0, fmt.Errorf("hello ack: type %d, %v", f.Type, err)
	}
	s.markAcked(f.Seq)
	s.conn = c
	s.readerEnd = make(chan struct{})
	go s.readAcks(fr, s.readerEnd)
	return f.Seq, nil
}

func (s *served) readAcks(fr *ingest.FrameReader, end chan struct{}) {
	defer close(end)
	for {
		f, err := fr.ReadFrame()
		if err != nil {
			return // the connection closed; a dead server shows as unacked frames
		}
		if f.Type == ingest.FrameAck {
			s.markAcked(f.Seq)
		}
	}
}

// markAcked stamps every newly covered frame with the ack's arrival time.
func (s *served) markAcked(seq uint64) {
	now := s.now()
	last := s.lastAck.Load()
	if int64(seq) <= last {
		return
	}
	for i := last; i < int64(seq); i++ {
		s.ackAt[i] = now
	}
	s.lastAck.Store(int64(seq))
	s.kick()
}

func (s *served) kick() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// waitAcked blocks until the first n frames are acked.
func (s *served) waitAcked(n int, timeout time.Duration) error {
	t := time.NewTimer(timeout)
	defer t.Stop()
	for s.lastAck.Load() < int64(n) {
		select {
		case <-s.notify:
		case <-t.C:
			return fmt.Errorf("%d of %d frames unacked after %v", int64(n)-s.lastAck.Load(), n, timeout)
		}
	}
	return nil
}

// send writes frame i for the first time, stamping its send time.
func (s *served) send(i int) error {
	s.sentAt[i] = s.now()
	if _, err := s.conn.Write(s.st.frame(i)); err != nil {
		return fmt.Errorf("write frame %d: %w", i+1, err)
	}
	s.next = i + 1
	return nil
}

func (s *served) subscribe(i int, cursor uint64) error {
	ch, err := s.cl.Subscribe(s.ids[i], cursor, server.PolicyBlock, 0)
	if err != nil {
		return fmt.Errorf("subscribe query %d: %w", s.ids[i], err)
	}
	st := s.subs[i]
	s.subWG.Add(1)
	go func() {
		defer s.subWG.Done()
		for ev := range ch {
			s.hold.RLock()
			switch {
			case ev.Err != nil:
				if !s.killing.Load() {
					st.lost = ev.Err
				}
			case ev.Gap:
				st.gapRows += ev.GapTo - ev.GapFrom
			default:
				if ev.Cursor <= st.last {
					break // redelivery of a row already held
				}
				st.skipped += ev.Cursor - st.last - 1
				st.rows = append(st.rows, ev.Row)
				st.arrive = append(st.arrive, s.now())
				st.last = ev.Cursor
				st.n.Add(1)
			}
			s.hold.RUnlock()
		}
	}()
	return nil
}

// subscribeAll (re)subscribes every query from just past its last cursor,
// subscribeDepth requests at a time on the one control connection.
func (s *served) subscribeAll() error {
	var wg sync.WaitGroup
	errs := make(chan error, len(s.subs))
	sem := make(chan struct{}, subscribeDepth)
	for i, st := range s.subs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if err := s.subscribe(i, st.last+1); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// setup starts a child on a fresh state directory and times it until the
// whole catalog is attached, subscribed and acking the stream's first frame.
func (s *served) setup(stateDir string) (time.Duration, error) {
	s.lastAck.Store(0)
	s.next = 0
	s.subs = make([]*subState, len(s.w.queries))
	for i := range s.subs {
		s.subs[i] = &subState{}
	}
	s.ids = make([]uint32, len(s.w.queries))
	start := time.Now()
	deadline := start.Add(60 * time.Second)
	if err := s.startServer(stateDir); err != nil {
		return 0, err
	}
	if err := s.dialControl(deadline); err != nil {
		return 0, err
	}
	for i, q := range s.w.queries {
		t := time.Now()
		id, err := s.cl.Attach(q)
		// The control socket accepts before the first incarnation is up;
		// until then the server answers Degraded, "retry later".
		for server.IsDegraded(err) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
			t = time.Now()
			id, err = s.cl.Attach(q)
		}
		if err != nil {
			return 0, fmt.Errorf("attach %q: %w", q, err)
		}
		s.attachTimes = append(s.attachTimes, float64(time.Since(t))/1e6)
		s.ids[i] = id
	}
	if err := s.subscribeAll(); err != nil {
		return 0, err
	}
	if _, err := s.dialIngest(deadline); err != nil {
		return 0, err
	}
	if err := s.send(0); err != nil {
		return 0, err
	}
	if err := s.waitAcked(1, time.Until(deadline)); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// closedLoop sends frames [next, end), keeping closedWindow of them
// unacked, and returns the acked packets per second (the median over
// closedChunks equal runs of frames). The phase is a fixed
// amount of work, not a fixed time, so every later phase starts from the
// same stream position (and the same retained ring rows) whatever the
// server's speed.
func (s *served) closedLoop(end int) (float64, error) {
	first := s.next
	start := s.now()
	s.conn.SetWriteDeadline(time.Now().Add(120 * time.Second))
	for s.next < end {
		for int64(s.next)-s.lastAck.Load() >= closedWindow {
			if err := s.waitAcked(s.next-closedWindow+1, 30*time.Second); err != nil {
				return 0, err
			}
		}
		s.dueAt[s.next] = s.now()
		if err := s.send(s.next); err != nil {
			return 0, err
		}
	}
	if err := s.waitAcked(s.next, 30*time.Second); err != nil {
		return 0, err
	}
	return median(chunkRates(s.ackAt[first:s.next], start, closedChunks)), nil
}

// chunkRates cuts the acked frames into k equal runs and returns each
// run's packets per second, from the previous run's last ack (or start)
// to its own. The median over runs keeps a stall or a burst of host
// contention inside one run from moving the phase's figure.
func chunkRates(ackAt []int64, start int64, k int) []float64 {
	rates := make([]float64, 0, k)
	prev, from := start, 0
	for c := 1; c <= k; c++ {
		to := len(ackAt) * c / k
		if to == from {
			continue
		}
		end := ackAt[to-1]
		rates = append(rates, float64((to-from)*framePkts)/(float64(end-prev)/1e9))
		prev, from = end, to
	}
	return rates
}

// fixedRate is the open loop: frame k of n is due at start + k·interval
// and is written then, however far behind the server is. It returns the
// frame range and the server and driver CPU spent over the phase.
type fixedResult struct {
	from, to           int
	serverCPU, selfCPU time.Duration
	rssMB              float64
}

func (s *served) fixedRate(n int) (fixedResult, error) {
	interval := float64(time.Second) * framePkts / s.w.rate
	r := fixedResult{from: s.next, to: s.next + n}
	cpu0, err := procCPU(s.srv.pid)
	if err != nil {
		return r, err
	}
	self0 := processCPU()
	base := s.now()
	s.conn.SetWriteDeadline(time.Now().Add(time.Duration(float64(n)*interval) + 30*time.Second))
	for k := 0; k < n; k++ {
		due := base + int64(float64(k)*interval)
		if wait := due - s.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		s.dueAt[s.next] = due
		if err := s.send(s.next); err != nil {
			return r, err
		}
	}
	if err := s.waitAcked(s.next, 30*time.Second); err != nil {
		return r, err
	}
	cpu1, err := procCPU(s.srv.pid)
	if err != nil {
		return r, err
	}
	r.serverCPU, r.selfCPU = cpu1-cpu0, processCPU()-self0
	r.rssMB, err = procHWM(s.srv.pid)
	return r, err
}

// stats reads the child's counters from its /metrics endpoint and adds
// them to the run's totals; each child process starts its counters from
// zero. (The control protocol's Stats verb is not used: its JSON snapshot
// lists every query, and past about a hundred queries it outgrows the
// control frame limit and the server drops the connection.)
func (s *served) stats() error {
	page, err := s.metricsPage("")
	if err != nil {
		return err
	}
	for k, v := range parseCounters(string(page)) {
		s.counters[k] += v
	}
	return nil
}

// metricsPage fetches the child's /metrics page with the given query.
func (s *served) metricsPage(query string) ([]byte, error) {
	addr, err := s.httpAddr()
	if err != nil {
		return nil, err
	}
	hc := http.Client{Timeout: 10 * time.Second}
	resp, err := hc.Get("http://" + addr + "/metrics" + query)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return body, nil
}

// parseCounters reads the integer "name value" lines of a /metrics page.
func parseCounters(page string) map[string]uint64 {
	out := map[string]uint64{}
	for _, line := range strings.Split(page, "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseUint(val, 10, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// httpAddr finds the child's HTTP address in its startup log line
// ("serving: control ..., ingest ..., http 127.0.0.1:PORT"), which the
// child prints once its first incarnation is up.
func (s *served) httpAddr() (string, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		b, err := os.ReadFile(filepath.Join(s.dir, fmt.Sprintf("server%d.log", s.inc)))
		if err != nil {
			return "", err
		}
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "serving: "); ok {
				if _, addr, ok := strings.Cut(rest, ", http "); ok {
					return strings.TrimSpace(addr), nil
				}
			}
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("no http address in the server log")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// killRecover writes a burst of frames and waits for their acks, SIGKILLs
// the child, restarts it on the same state directory, resumes every
// subscription from its cursor and the ingest session from the server's
// hello ack, and times until a new frame is acked.
func (s *served) killRecover(stateDir string, burst int) (time.Duration, error) {
	if err := s.stats(); err != nil {
		return 0, err
	}
	for b := 0; b < burst; b++ {
		s.dueAt[s.next] = s.now()
		if err := s.send(s.next); err != nil {
			return 0, err
		}
	}
	if err := s.waitAcked(s.next, 30*time.Second); err != nil {
		return 0, err
	}
	killAt := time.Now()
	s.stop()
	deadline := killAt.Add(60 * time.Second)
	if err := s.startServer(stateDir); err != nil {
		return 0, err
	}
	if err := s.dialControl(deadline); err != nil {
		return 0, err
	}
	if err := s.subscribeAll(); err != nil {
		return 0, err
	}
	applied, err := s.dialIngest(deadline)
	if err != nil {
		return 0, err
	}
	if int(applied) != s.next {
		return 0, fmt.Errorf("restarted server applied %d frames, %d were acked", applied, s.next)
	}
	s.dueAt[s.next] = s.now()
	if err := s.send(s.next); err != nil {
		return 0, err
	}
	if err := s.waitAcked(s.next, time.Until(deadline)); err != nil {
		return 0, err
	}
	return time.Since(killAt), nil
}

// resumeGap measures what the resume contract loses to a crash: with every
// subscription reader paused, it writes a burst of frames, waits until the
// server stops acking (PolicyBlock holds a frame whose rows do not fit the
// rings) or acks them all, SIGKILLs the child, restarts it, and returns per
// query how far the restarted server's oldest retained cursor lies past the
// subscriber's next one, summed. The client contract promises zero; rows a
// recovery replays past a ring's capacity are lost.
func (s *served) resumeGap(stateDir string, burst int) (uint64, error) {
	s.hold.Lock()
	for b := 0; b < burst; b++ {
		if err := s.send(s.next); err != nil {
			s.hold.Unlock()
			return 0, err
		}
	}
	for last := int64(-1); last != s.lastAck.Load() && s.lastAck.Load() < int64(s.next); {
		last = s.lastAck.Load()
		time.Sleep(200 * time.Millisecond)
	}
	s.killing.Store(true)
	s.srv.cmd.Process.Kill()
	s.hold.Unlock()
	s.stop()
	if err := s.startServer(stateDir); err != nil {
		return 0, err
	}
	// The hello ack comes from the rebuilt incarnation's listener, after
	// its rings are restored and the WAL replayed.
	if _, err := s.dialIngest(time.Now().Add(60 * time.Second)); err != nil {
		return 0, err
	}
	page, err := s.metricsPage("?format=json")
	if err != nil {
		return 0, err
	}
	var snap struct {
		Queries []struct {
			ID   uint32 `json:"id"`
			Base uint64 `json:"base"`
		} `json:"queries"`
	}
	if err := json.Unmarshal(page, &snap); err != nil {
		return 0, fmt.Errorf("metrics json: %w", err)
	}
	base := map[uint32]uint64{}
	for _, q := range snap.Queries {
		base[q.ID] = q.Base
	}
	var gap uint64
	for i, st := range s.subs {
		if b := base[s.ids[i]]; b > st.last+1 {
			gap += b - (st.last + 1)
		}
	}
	return gap, nil
}

// awaitRows waits until every subscription holds want[i] rows.
func (s *served) awaitRows(want []int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		short := 0
		for i, st := range s.subs {
			if st.n.Load() < int64(want[i]) {
				short++
			}
		}
		if short == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d subscriptions short of their oracle rows after %v", short, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
