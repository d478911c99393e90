package main

import (
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"time"

	"forwarddecay/gsql"
	"forwarddecay/ingest"
	"forwarddecay/netgen"
)

// inproc is a MultiRun in this process holding the workload's catalog. As
// the oracle it is never closed, so, like the server, it never flushes its
// open buckets; closeAt records which frame's push emitted each row (the
// frame carrying the bucket's first later packet). Sharded members emit on
// the pushing goroutine too, at the coordinator's window-close merge.
type inproc struct {
	m       *gsql.MultiRun
	handles []*gsql.MultiHandle
	rows    [][]gsql.Tuple
	closeAt [][]int32
	cur     int32 // frame index being pushed
	frozen  bool  // drop rows from here on (the closing flush)
	attach  time.Duration
}

// serverIsolation mirrors the server's default per-query isolation
// (Config.QueryBreakerErrors = 16), which also turns on the per-query cost
// sampling gsql.member_share reads.
func serverIsolation() gsql.Options {
	return gsql.Options{Isolate: &gsql.IsolateConfig{BreakerErrors: 16}}
}

// newInproc attaches queries with the given shard count (0 = serial), each
// recording its rows with their closing frames.
func newInproc(queries []string, shards int) (*inproc, error) {
	eng := gsql.NewEngine()
	if err := eng.RegisterStream(gsql.PacketSchema("TCP")); err != nil {
		return nil, err
	}
	m, err := gsql.NewMultiRun(eng, "TCP", serverIsolation())
	if err != nil {
		return nil, err
	}
	ip := &inproc{m: m, rows: make([][]gsql.Tuple, len(queries)), closeAt: make([][]int32, len(queries))}
	for i, q := range queries {
		sink := func(row gsql.Tuple) error {
			if !ip.frozen {
				ip.rows[i] = append(ip.rows[i], append(gsql.Tuple(nil), row...))
				ip.closeAt[i] = append(ip.closeAt[i], ip.cur)
			}
			return nil
		}
		t := time.Now()
		h, err := m.Attach(q, shards, sink)
		ip.attach += time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("attach %q: %w", q, err)
		}
		ip.handles = append(ip.handles, h)
	}
	return ip, nil
}

// close releases the run without recording its open-bucket flush.
func (ip *inproc) close() error {
	ip.frozen = true
	return ip.m.CloseAll()
}

func (ip *inproc) push(b *gsql.Batch) error {
	rejected, err := ip.m.PushBatch(b)
	if err != nil {
		return err
	}
	if rejected != 0 {
		return fmt.Errorf("%d tuples rejected", rejected)
	}
	return nil
}

func newPacketBatch() (*gsql.Batch, error) { return gsql.NewBatch(gsql.PacketSchema("TCP")) }

// fillBatch loads a decoded frame into b as the ingest pump does.
func fillBatch(b *gsql.Batch, f ingest.Frame) {
	netgen.FillBatch(b, f.Packets)
	b.SetSorted(b.Sorted() && f.Sorted)
}

// decodeInto decodes sealed frame bytes into b.
func decodeInto(b *gsql.Batch, frame []byte) error {
	f, _, err := ingest.DecodeFrame(frame, 0)
	if err != nil {
		return err
	}
	fillBatch(b, f)
	ingest.RecycleFrame(f)
	return nil
}

// oracle pushes frames [0, n) through a MultiRun with the server's shard
// count, one frame per batch as the server's ingest pump applies them.
func oracle(queries []string, shards int, st *stream, n int) (*inproc, error) {
	ip, err := newInproc(queries, shards)
	if err != nil {
		return nil, err
	}
	b, err := newPacketBatch()
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if err := decodeInto(b, st.frame(i)); err != nil {
			return nil, err
		}
		ip.cur = int32(i)
		if err := ip.push(b); err != nil {
			return nil, fmt.Errorf("oracle frame %d: %w", i+1, err)
		}
	}
	return ip, nil
}

// ledger is the traced run's per-layer measurement.
type ledger struct {
	pkts         int
	decode       time.Duration // in ingest.DecodeFrame
	listenerSelf time.Duration // listener pass CPU less client, sink and checkpoint time
	push         time.Duration // in MultiRun.PushBatch, serial
	ckpt         time.Duration // in MultiHandle.Checkpoint at 8192-tuple cuts
	ckptBytes    int
	ckptCuts     int
	pushSharded  time.Duration // CPU of the shards=2 pass less decode
	shardedPkts  int
	serial       *inproc // the listener pass's run: the serial oracle
	sharded      *inproc // the shards=2 pass's run (closed)
}

// timedSink feeds the oracle MultiRun from an ingest.Listener, timing each
// PushBatch and counting frames so each row's closing frame is known.
type timedSink struct {
	ip    *inproc
	frame int32
	busy  time.Duration
	tr    *tracer
}

func (t *timedSink) Push(tu gsql.Tuple) error     { return t.ip.m.Push(tu) }
func (t *timedSink) Heartbeat(v gsql.Value) error { return t.ip.m.Heartbeat(v) }
func (t *timedSink) PushBatch(b *gsql.Batch) (int, error) {
	t.ip.cur = t.frame
	start := t.tr.now()
	err := t.ip.push(b)
	end := t.tr.now()
	t.busy += time.Duration(end - start)
	t.tr.add(uint64(t.frame)+1, "gsql", "MultiRun.PushBatch", start, end)
	t.frame++
	return 0, err
}

// shardedPrefix bounds the shards=2 pass on workloads the server runs
// serially, where it is only a per-layer measurement.
const shardedPrefix = 2048

// traced measures the in-process layers over frames [0, n): a decode pass,
// a listener pass on a unix socket feeding the serial oracle (with the
// server's 8192-tuple checkpoint cut), and a shards=2 pass.
func traced(w *workload, st *stream, n int, dir string, tr *tracer) (*ledger, error) {
	lg := &ledger{pkts: n * framePkts}

	// Decode pass.
	for i := 0; i < n; i++ {
		start := tr.now()
		f, _, err := ingest.DecodeFrame(st.frame(i), 0)
		end := tr.now()
		if err != nil {
			return nil, err
		}
		lg.decode += time.Duration(end - start)
		tr.add(uint64(i)+1, "ingest", "DecodeFrame", start, end)
		ingest.RecycleFrame(f)
	}

	// Listener pass.
	ip, err := newInproc(w.queries, 0)
	if err != nil {
		return nil, err
	}
	lg.serial = ip
	sink := &timedSink{ip: ip, tr: tr}
	cfg := ingest.Config{
		Sink:            sink,
		CheckpointEvery: 8192,
		Checkpoint: func() error {
			start := tr.now()
			for _, h := range ip.handles {
				b, err := h.Checkpoint()
				if err != nil {
					return err
				}
				lg.ckptBytes += len(b)
			}
			end := tr.now()
			lg.ckpt += time.Duration(end - start)
			lg.ckptCuts++
			tr.add(uint64(sink.frame), "gsql", "MultiHandle.Checkpoint", start, end)
			return nil
		},
	}
	sock := filepath.Join(dir, "traced.sock")
	l, err := ingest.Listen("unix", sock, cfg)
	if err != nil {
		return nil, err
	}
	cpu0 := processCPU()
	clientCPU, err := listenerClient(sock, st, n, tr)
	cpu1 := processCPU()
	if serr := l.Shutdown(10 * time.Second); err == nil {
		err = serr
	}
	if err != nil {
		return nil, fmt.Errorf("listener pass: %w", err)
	}
	if int(sink.frame) != n {
		return nil, fmt.Errorf("listener pass applied %d of %d frames", sink.frame, n)
	}
	lg.push = sink.busy
	lg.listenerSelf = cpu1 - cpu0 - clientCPU - sink.busy - lg.ckpt

	// Sharded pass: CPU over all threads, less the single-threaded decode.
	// It covers every frame when the server runs sharded (it is then the
	// served rows' reference) and a bounded prefix otherwise.
	sn := n
	if w.shards == 0 && sn > shardedPrefix {
		sn = shardedPrefix
	}
	sh, err := newInproc(w.queries, 2)
	if err != nil {
		return nil, err
	}
	lg.sharded = sh
	b, err := newPacketBatch()
	if err != nil {
		return nil, err
	}
	var decode time.Duration
	cpu0 = processCPU()
	for i := 0; i < sn; i++ {
		t := time.Now()
		if err := decodeInto(b, st.frame(i)); err != nil {
			return nil, err
		}
		decode += time.Since(t)
		sh.cur = int32(i)
		start := tr.now()
		if err := sh.push(b); err != nil {
			return nil, fmt.Errorf("sharded frame %d: %w", i+1, err)
		}
		tr.add(uint64(i)+1, "gsql", "MultiRun.PushBatch[shards=2]", start, tr.now())
	}
	if err := sh.close(); err != nil {
		return nil, err
	}
	lg.pushSharded = processCPU() - cpu0 - decode
	lg.shardedPkts = sn * framePkts
	return lg, nil
}

// listenerClient streams frames [0, n) to the listener with the closed
// loop's window, writing and reading acks on one goroutine locked to its
// OS thread so that thread's CPU is the client's whole cost.
func listenerClient(sock string, st *stream, n int, tr *tracer) (time.Duration, error) {
	type result struct {
		cpu time.Duration
		err error
	}
	done := make(chan result, 1)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		cpu0 := threadCPU()
		err := func() error {
			c, err := net.Dial("unix", sock)
			if err != nil {
				return err
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(120 * time.Second))
			if _, err := c.Write(ingest.AppendHello(nil, 1)); err != nil {
				return err
			}
			fr := ingest.NewFrameReader(c, 0)
			acked := 0
			readAck := func() error {
				f, err := fr.ReadFrame()
				if err != nil {
					return err
				}
				if f.Type == ingest.FrameAck && int(f.Seq) > acked {
					now := tr.now()
					for i := acked; i < int(f.Seq); i++ {
						tr.end(uint64(i)+1, now)
					}
					acked = int(f.Seq)
				}
				return nil
			}
			if err := readAck(); err != nil { // hello ack
				return err
			}
			for i := 0; i < n; i++ {
				for i-acked >= closedWindow {
					if err := readAck(); err != nil {
						return err
					}
				}
				tr.begin(uint64(i)+1, "ingest", "Listener", tr.now())
				if _, err := c.Write(st.frame(i)); err != nil {
					return err
				}
			}
			for acked < n {
				if err := readAck(); err != nil {
					return err
				}
			}
			_, err = c.Write(ingest.AppendBye(nil))
			return err
		}()
		done <- result{threadCPU() - cpu0, err}
	}()
	r := <-done
	return r.cpu, r.err
}
