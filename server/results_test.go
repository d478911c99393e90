package server

// Results-file tests: a checkpoint writes only the rows emitted since the
// previous one, the state file no longer grows with the rings, a failure at
// each step of the checkpoint recovers bit-exactly from the committed prefix,
// and a version-2 state file (rows inline) loads and migrates.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"forwarddecay/gsql"
	"forwarddecay/internal/faultinject"
	"forwarddecay/netgen"
)

// manualService boots a service whose checkpoints run only when the test
// calls checkpointNow, so every checkpoint lands between known frames.
func manualService(t *testing.T, dir string, ring int) *Service {
	t.Helper()
	return startService(t, dir, func(c *Config) {
		c.CheckpointEvery = 1 << 40
		c.ResultLog = ring
	})
}

func checkpointNow(s *Service) error {
	rt := s.rt.Load()
	if rt == nil {
		return errors.New("no live incarnation")
	}
	return s.checkpoint(rt)
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// resultsFiles lists the results generations present in dir.
func resultsFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "results-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// crashImage copies dir's files into a fresh directory: the bytes a process
// killed at this instant would leave behind.
func crashImage(t *testing.T, dir string) string {
	t.Helper()
	out := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(out, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// requireRing asserts that query id's ring holds exactly the oracle rows of
// its window, and returns the window.
func requireRing(t *testing.T, s *Service, id uint32, want []gsql.Tuple, label string) (base, end uint64) {
	t.Helper()
	q, err := s.lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	base, rows := q.log.snapshot()
	end = base + uint64(len(rows)) - 1
	if end > uint64(len(want)) || len(rows) == 0 {
		t.Fatalf("%s: ring window [%d, %d] against %d oracle rows", label, base, end, len(want))
	}
	requireIdentical(t, want[base-1:end], rows, label)
	return base, end
}

// finishAndCompare subscribes from the ring's base, streams the remaining
// packets into s, and demands every row from base to the oracle's end.
func finishAndCompare(t *testing.T, s *Service, id uint32, base uint64, rest []netgen.Packet, session uint64, want []gsql.Tuple, label string) {
	t.Helper()
	cl := dialControl(t, s)
	ch, err := cl.Subscribe(id, base, PolicyBlock, 0)
	if err != nil {
		t.Fatal(err)
	}
	streamAll(t, dialIngest(t, s, session), rest)
	rows, _ := collectRows(t, ch, base, len(want)-int(base)+1, 30*time.Second)
	requireIdentical(t, want[base-1:], rows, label)
}

// TestCheckpointWritesOnlyNewRows: a checkpoint with nothing new emitted
// appends zero result bytes and rewrites an identical state file; one with
// new rows appends only those.
func TestCheckpointWritesOnlyNewRows(t *testing.T) {
	dir := t.TempDir()
	pkts := genPackets(t, 4000, 50, 17)
	want := oracleRows(t, pkts)
	svc := manualService(t, dir, 1<<14)
	cl := dialControl(t, svc)
	id, err := cl.Attach(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	streamAll(t, dialIngest(t, svc, 1), pkts[:2000])
	if err := checkpointNow(svc); err != nil {
		t.Fatal(err)
	}
	files := resultsFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("results generations after the first checkpoint: %v", files)
	}
	res, state := files[0], filepath.Join(dir, stateFile)
	r1, s1 := fileSize(t, res), fileSize(t, state)

	if err := checkpointNow(svc); err != nil {
		t.Fatal(err)
	}
	if r2, s2 := fileSize(t, res), fileSize(t, state); r2 != r1 || s2 != s1 {
		t.Fatalf("idle checkpoint: results %d -> %d bytes, state %d -> %d bytes; want both unchanged", r1, r2, s1, s2)
	}

	q, err := svc.lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	_, end1 := q.log.window()
	streamAll(t, dialIngest(t, svc, 2), pkts[2000:])
	_, end2 := q.log.window()
	if end2 <= end1 {
		t.Fatalf("second half emitted no rows (end %d -> %d)", end1, end2)
	}
	if err := checkpointNow(svc); err != nil {
		t.Fatal(err)
	}
	var body []byte
	for _, row := range want[end1:end2] {
		body = appendRow(body, row)
	}
	grown := fileSize(t, res) - r1
	if record := int64(12 + resultsRecordHeader + len(body)); grown != record {
		t.Fatalf("checkpoint after %d new rows appended %d bytes, want one %d-byte record", end2-end1, grown, record)
	}
	// The state file's size is independent of the rows the rings retain.
	st, err := loadState(dir)
	if err != nil {
		t.Fatal(err)
	}
	small := len(encodeState(st))
	st.queries[0].base, st.queries[0].end = 1, 1<<20
	if big := len(encodeState(st)); big != small {
		t.Fatalf("state encodes to %d bytes with 2^20 retained rows, %d with its own window", big, small)
	}
}

// TestCheckpointFaultRecovery fails one step of a checkpoint through the
// durable fault points, then recovers a crash image of the directory: the
// results file must be cut back to the length the surviving state file
// committed, no other generation may survive, and the restored ring plus
// the rest of the stream must match the oracle bit for bit.
//
// With an 8-row ring and at least 8 new rows per chunk, checkpoint 1
// creates generation 1, checkpoint 2 appends (16 rows held for 8 retained),
// and checkpoint 3 compacts into generation 2.
func TestCheckpointFaultRecovery(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ckpt  int    // which checkpoint fails
		point string // fault point
		hit   uint64 // failing hit within that checkpoint
		want  string // error text naming the failed step
		// landed: the state file was renamed into place before the
		// failure, so it commits the new rows.
		landed bool
	}{
		{"results-fsync", 2, "durable.sync", 1, "results sync", false},
		{"state-write", 2, "durable.sync", 3, "atomic write", false},
		{"state-dirsync", 2, "durable.dirsync", 1, "sync dir", true},
		{"compact-fsync", 3, "durable.sync", 1, "results generation 2", false},
		{"compact-dirsync", 3, "durable.dirsync", 1, "results generation 2", false},
		{"compact-state-write", 3, "durable.sync", 3, "atomic write", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer faultinject.Reset()
			dir := t.TempDir()
			pkts := genPackets(t, 6000, 50, 29)
			want := oracleRows(t, pkts)
			svc := manualService(t, dir, 8)
			cl := dialControl(t, svc)
			id, err := cl.Attach(testQuery)
			if err != nil {
				t.Fatal(err)
			}
			q, err := svc.lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			const chunk = 1000
			var image string
			for i := 1; i <= tc.ckpt; i++ {
				_, before := q.log.window()
				streamAll(t, dialIngest(t, svc, uint64(i)), pkts[(i-1)*chunk:i*chunk])
				if _, after := q.log.window(); after < before+8 {
					t.Fatalf("chunk %d emitted %d rows, want >= 8", i, after-before)
				}
				if i < tc.ckpt {
					if err := checkpointNow(svc); err != nil {
						t.Fatalf("checkpoint %d: %v", i, err)
					}
					continue
				}
				faultinject.Set(tc.point, faultinject.Fault{ErrAt: tc.hit, Err: fmt.Errorf("injected %s failure", tc.point)})
				err := checkpointNow(svc)
				faultinject.Reset()
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("checkpoint %d: %v, want a failure at %q", i, err, tc.want)
				}
				image = crashImage(t, dir)
			}
			if tc.landed {
				// The commit point on disk is unknown to this incarnation:
				// it must refuse to append again.
				if err := checkpointNow(svc); err == nil {
					t.Fatal("checkpoint after a landed-but-failed state write succeeded")
				}
			}

			st, err := loadState(image)
			if err != nil {
				t.Fatal(err)
			}
			cut := tc.ckpt * chunk
			if !tc.landed {
				cut = (tc.ckpt - 1) * chunk
			}
			if got := st.queries[0].end; got != uint64(len(oracleRows(t, pkts[:cut]))) {
				t.Fatalf("surviving state ends at cursor %d, want the oracle's %d rows after %d packets", got, len(oracleRows(t, pkts[:cut])), cut)
			}
			if tc.name == "results-fsync" || tc.name == "state-write" {
				if size := fileSize(t, resultsName(image, st.resultsGen)); uint64(size) <= st.resultsLen {
					t.Fatalf("crash image results file is %d bytes, want an uncommitted tail past %d", size, st.resultsLen)
				}
			}

			// The committed prefix alone rebuilds the checkpoint's window.
			_, rows, err := openResults(crashImage(t, image), st, map[uint32]bool{id: true})
			if err != nil {
				t.Fatal(err)
			}
			w := st.queries[0]
			requireIdentical(t, want[w.base-1:w.end], rows[id], "committed window")

			svc2 := manualService(t, image, 8)
			if files := resultsFiles(t, image); len(files) != 1 || files[0] != resultsName(image, st.resultsGen) {
				t.Fatalf("results files after recovery: %v, want only generation %d", files, st.resultsGen)
			}
			if size := fileSize(t, resultsName(image, st.resultsGen)); uint64(size) != st.resultsLen {
				t.Fatalf("results file is %d bytes after recovery, want the committed %d", size, st.resultsLen)
			}
			base, _ := requireRing(t, svc2, id, want, "restored ring")
			finishAndCompare(t, svc2, id, base, pkts[tc.ckpt*chunk:], 100, want, "after recovery")
			if err := checkpointNow(svc2); err != nil {
				t.Fatalf("checkpoint after recovery: %v", err)
			}
		})
	}
}

// TestStateV2Migrates loads a version-2 state file (ring rows inline, no
// results file), serves from it bit-exactly, and migrates it to version 3
// at the next checkpoint.
func TestStateV2Migrates(t *testing.T) {
	dir := t.TempDir()
	pkts := genPackets(t, 4000, 50, 33)
	want := oracleRows(t, pkts)
	svc1 := manualService(t, dir, 64)
	cl := dialControl(t, svc1)
	id, err := cl.Attach(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	streamAll(t, dialIngest(t, svc1, 1), pkts[:2000])
	if err := svc1.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// Rewrite the directory as an older server left it: rows inline in a
	// version-2 state file, no results file.
	st, err := loadState(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, rows, err := openResults(dir, st, map[uint32]bool{id: true})
	if err != nil {
		t.Fatal(err)
	}
	st.queries[0].rows = rows[id]
	if err := os.WriteFile(filepath.Join(dir, stateFile), encodeStateV2(st), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, f := range resultsFiles(t, dir) {
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
	}

	svc2 := manualService(t, dir, 64)
	base, _ := requireRing(t, svc2, id, want, "ring from a v2 state")
	finishAndCompare(t, svc2, id, base, pkts[2000:], 2, want, "served from a v2 state")
	if err := svc2.Shutdown(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, stateFile))
	if err != nil {
		t.Fatal(err)
	}
	if b[7] != stateMagic[7] || len(resultsFiles(t, dir)) != 1 {
		t.Fatalf("after the migrating checkpoint: state version %d, results files %v", b[7], resultsFiles(t, dir))
	}
	svc3 := manualService(t, dir, 64)
	if _, end := requireRing(t, svc3, id, want, "ring from the migrated state"); end != uint64(len(want)) {
		t.Fatalf("migrated ring ends at %d, want %d", end, len(want))
	}
}
