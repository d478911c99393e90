package server

// The results file: the durable copy of every query's result ring. Each
// emitted row is written here once, by the first checkpoint after its
// emission, so a checkpoint's cost follows the rows emitted since the last
// one, not the rows the rings retain.
//
// Layout: one file per generation, `results-%08d.log`:
//
//	header = 8-byte magic "FDRES\x01\x00\x00" · u64 generation
//	then sealed records (the ingest length+checksum envelope):
//	  u32 query id · u64 first cursor · u32 n · n × row (appendRow)
//
// Commit discipline: a checkpoint appends one record per query holding the
// rows emitted since the previous checkpoint and fsyncs the file; only then
// does it write the state file, which names the generation and the length
// the file had after the append. That length is the commit point. Bytes
// past it belong to a checkpoint whose state write never landed, and
// recovery truncates them. Within a generation each query's records cover
// ascending, disjoint cursor ranges.
//
// Compaction: the file gains every emitted row while the rings keep only
// the newest. When an append would leave the file holding more than twice
// the rows the rings retain, the checkpoint writes the retained rows as
// generation g+1 instead (fsync, directory sync), the state file names g+1,
// and g is deleted. Recovery deletes every generation the state file does
// not name, which also clears a compaction that crashed before its state
// write. A state file older than this format (v1/v2, rows inline) names no
// generation; its first checkpoint writes generation 1 the same way.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"forwarddecay/gsql"
	"forwarddecay/ingest"
	"forwarddecay/internal/durable"
)

var resultsMagic = [8]byte{'F', 'D', 'R', 'E', 'S', 1, 0, 0}

const (
	resultsHeaderSize = 16
	// resultsRecordHeader is the fixed body prefix: id, first cursor, n.
	resultsRecordHeader = 4 + 8 + 4
	// resultsMaxRecord bounds one sealed record body; a record holds at most
	// one ring's rows.
	resultsMaxRecord = 1 << 30
)

// resultsName formats the file name for a generation.
func resultsName(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("results-%08d.log", gen))
}

// resultsFile is the append side of the current generation. Like the WAL it
// is owned by one incarnation and touched only under s.mu (checkpoint) or
// before the incarnation is published (buildRuntime).
type resultsFile struct {
	dir  string
	gen  uint64   // 0: no generation yet (fresh directory or v1/v2 state)
	f    *os.File // nil when gen == 0
	size int64    // committed length in bytes
	rows uint64   // rows in the committed prefix
	// done maps each query to the highest cursor the committed prefix
	// covers; the next checkpoint writes that query's rows after it.
	done map[uint32]uint64
	// body and buf are reused encode buffers.
	body, buf []byte
	// err, once set, refuses every later batch: a state write failed after
	// its rename may have landed, so the commit point on disk is unknown
	// until a rebuild reads it back.
	err error
}

// ringCut is one query's ring as a checkpoint saw it.
type ringCut struct {
	id        uint32
	rl        *resultLog
	base, end uint64
	from      uint64 // first cursor not yet in the committed prefix
}

// resultsBatch is one checkpoint's change to the results file. Nothing in
// the resultsFile moves until commit, so a checkpoint that fails anywhere
// leaves it describing the state file still on disk.
type resultsBatch struct {
	r        *resultsFile
	cuts     []ringCut
	delta    uint64 // rows past each query's committed cursor
	retained uint64 // rows the rings hold

	// Set by write.
	gen  uint64
	f    *os.File // the new generation's file, when write compacted
	size int64
	rows uint64
}

func (r *resultsFile) newBatch() *resultsBatch { return &resultsBatch{r: r} }

// add records query id's ring and returns its bounds for the state file.
func (b *resultsBatch) add(id uint32, rl *resultLog) (base, end uint64) {
	base, end = rl.window()
	from := max(b.r.done[id]+1, base)
	b.cuts = append(b.cuts, ringCut{id: id, rl: rl, base: base, end: end, from: from})
	if end >= from {
		b.delta += end + 1 - from
	}
	b.retained += end + 1 - base
	return base, end
}

// write makes the batch's rows durable and returns the generation and
// committed length the state file must name. It appends the new rows to the
// current generation, or starts generation g+1 holding every retained row
// when there is no current generation or the append would leave the file
// holding more than twice the retained rows.
func (b *resultsBatch) write() (gen uint64, size int64, err error) {
	r := b.r
	if r.err != nil {
		return 0, 0, r.err
	}
	if r.f == nil || r.rows+b.delta > 2*b.retained {
		if err := b.compact(); err != nil {
			return 0, 0, err
		}
		return b.gen, b.size, nil
	}
	b.gen, b.size, b.rows = r.gen, r.size, r.rows+b.delta
	if b.delta == 0 {
		return b.gen, b.size, nil // nothing new: no bytes, no fsync
	}
	r.buf = r.buf[:0]
	for _, c := range b.cuts {
		if c.end >= c.from {
			r.buf = r.appendRecord(r.buf, c.id, c.rl, c.from, c.end)
		}
	}
	// WriteAt the committed length: a failed earlier checkpoint's tail is
	// overwritten, never built upon.
	if _, err := r.f.WriteAt(r.buf, r.size); err != nil {
		return 0, 0, fmt.Errorf("server: results append: %w", err)
	}
	if err := durable.SyncFile(r.f); err != nil {
		return 0, 0, fmt.Errorf("server: results sync: %w", err)
	}
	b.size += int64(len(r.buf))
	return b.gen, b.size, nil
}

// compact writes every retained row as generation r.gen+1: header, one
// record per non-empty ring, fsync, directory sync.
func (b *resultsBatch) compact() error {
	r := b.r
	gen := r.gen + 1
	path := resultsName(r.dir, gen)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("server: results generation %d: %w", gen, err)
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("server: results generation %d: %w", gen, err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	hdr := binary.LittleEndian.AppendUint64(append([]byte(nil), resultsMagic[:]...), gen)
	w.Write(hdr)
	size := int64(len(hdr))
	for _, c := range b.cuts {
		if c.end < c.base {
			continue
		}
		r.buf = r.appendRecord(r.buf[:0], c.id, c.rl, c.base, c.end)
		w.Write(r.buf)
		size += int64(len(r.buf))
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := durable.SyncFile(f); err != nil {
		return fail(err)
	}
	if err := durable.SyncDir(r.dir); err != nil {
		return fail(err)
	}
	b.gen, b.f, b.size, b.rows = gen, f, size, b.retained
	return nil
}

// commit adopts the batch once the state file naming it is durable, and
// deletes the generation it replaced.
func (b *resultsBatch) commit() error {
	r := b.r
	done := make(map[uint32]uint64, len(b.cuts))
	for _, c := range b.cuts {
		done[c.id] = c.end
	}
	r.done, r.size, r.rows = done, b.size, b.rows
	if b.f == nil {
		return nil
	}
	old, oldGen := r.f, r.gen
	r.f, r.gen, b.f = b.f, b.gen, nil
	if old == nil {
		return nil
	}
	old.Close()
	if err := os.Remove(resultsName(r.dir, oldGen)); err != nil {
		return fmt.Errorf("server: results: removing generation %d: %w", oldGen, err)
	}
	return nil
}

// abort ends a batch that will not commit. stateTried reports whether the
// state write was attempted: before it, no state file names a new
// generation, so abort deletes it. After it, the rename may have landed and
// named this batch on disk, so the file stays for recovery to judge and the
// resultsFile refuses further batches. A no-op after commit.
func (b *resultsBatch) abort(stateTried bool, cause error) {
	if stateTried {
		b.r.err = fmt.Errorf("server: results: commit point unknown after a failed state write: %w", cause)
	}
	if b.f == nil {
		return
	}
	b.f.Close()
	if !stateTried {
		os.Remove(resultsName(b.r.dir, b.gen))
	}
	b.f = nil
}

// appendRecord seals one record holding rl's rows [from, to] onto dst.
func (r *resultsFile) appendRecord(dst []byte, id uint32, rl *resultLog, from, to uint64) []byte {
	rl.visit(from, to, func(rows []gsql.Tuple) {
		r.body = appendResultsBody(r.body[:0], id, from, rows)
	})
	return ingest.AppendSealed(dst, r.body)
}

// appendResultsBody encodes one record body: id · first cursor · n · rows.
func appendResultsBody(b []byte, id uint32, first uint64, rows []gsql.Tuple) []byte {
	b = binary.LittleEndian.AppendUint32(b, id)
	b = binary.LittleEndian.AppendUint64(b, first)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(rows)))
	for _, row := range rows {
		b = appendRow(b, row)
	}
	return b
}

// close releases the generation file.
func (r *resultsFile) close() {
	if r.f != nil {
		r.f.Close()
	}
}

// resultsRecord is a decoded record header; rows holds the undecoded row
// bytes.
type resultsRecord struct {
	id    uint32
	first uint64
	n     uint32
	rows  []byte
}

func parseResultsRecord(body []byte) (resultsRecord, error) {
	if len(body) < resultsRecordHeader {
		return resultsRecord{}, fmt.Errorf("record body is %d bytes, want >= %d", len(body), resultsRecordHeader)
	}
	rec := resultsRecord{
		id:    binary.LittleEndian.Uint32(body),
		first: binary.LittleEndian.Uint64(body[4:]),
		n:     binary.LittleEndian.Uint32(body[12:]),
		rows:  body[resultsRecordHeader:],
	}
	// Every encoded row is at least its 2-byte column count.
	if rec.n == 0 || uint64(rec.n) > uint64(len(rec.rows))/2 {
		return resultsRecord{}, fmt.Errorf("record claims %d rows in %d bytes", rec.n, len(rec.rows))
	}
	if rec.first == 0 || rec.first+uint64(rec.n) < rec.first {
		return resultsRecord{}, fmt.Errorf("record cursor range [%d, +%d) is invalid", rec.first, rec.n)
	}
	return rec, nil
}

// decodeRows decodes the record's rows, calling keep with each row's cursor
// and the row.
func (rec resultsRecord) decodeRows(keep func(cursor uint64, row gsql.Tuple) error) error {
	d := decoder{b: rec.rows}
	for i := uint32(0); i < rec.n; i++ {
		row := d.row()
		if d.err != "" {
			return fmt.Errorf("row %d: %s", i, d.err)
		}
		if err := keep(rec.first+uint64(i), row); err != nil {
			return err
		}
	}
	if d.off != len(rec.rows) {
		return fmt.Errorf("%d trailing bytes", len(rec.rows)-d.off)
	}
	return nil
}

// openResults opens the generation st names, deletes every other one,
// truncates the uncommitted tail, and rebuilds the rows of each query in
// restore: restore[id] receives the rows of the window [base, end] the state
// file records for id. A nil st (fresh directory) or a v1/v2 state opens no
// generation.
func openResults(dir string, st *serverState, restore map[uint32]bool) (*resultsFile, map[uint32][]gsql.Tuple, error) {
	r := &resultsFile{dir: dir, done: map[uint32]uint64{}}
	if st != nil {
		r.gen = st.resultsGen
	}
	names, err := filepath.Glob(filepath.Join(dir, "results-*.log"))
	if err != nil {
		return nil, nil, fmt.Errorf("server: results open: %w", err)
	}
	for _, n := range names {
		if r.gen == 0 || n != resultsName(dir, r.gen) {
			if err := os.Remove(n); err != nil {
				return nil, nil, fmt.Errorf("server: results open: removing stale %s: %w", filepath.Base(n), err)
			}
		}
	}
	if r.gen == 0 {
		return r, nil, nil
	}
	path := resultsName(dir, r.gen)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("server: results open: %w", err)
	}
	fail := func(format string, args ...any) (*resultsFile, map[uint32][]gsql.Tuple, error) {
		return nil, nil, fmt.Errorf("server: results open: %s: %s", filepath.Base(path), fmt.Sprintf(format, args...))
	}
	if uint64(len(data)) < st.resultsLen || st.resultsLen < resultsHeaderSize {
		return fail("%d bytes, but the state file committed %d", len(data), st.resultsLen)
	}
	if [8]byte(data[:8]) != resultsMagic || binary.LittleEndian.Uint64(data[8:16]) != r.gen {
		return fail("bad header")
	}

	windows := map[uint32]*queryState{}
	out := map[uint32][]gsql.Tuple{}
	for i := range st.queries {
		q := &st.queries[i]
		r.done[q.id] = q.end
		if restore[q.id] {
			windows[q.id] = q
			if q.end >= q.base {
				out[q.id] = make([]gsql.Tuple, q.end+1-q.base)
			}
		}
	}
	filled := map[uint32]uint64{}
	committed := data[:st.resultsLen]
	for off := resultsHeaderSize; off < len(committed); {
		body, n, derr := ingest.DecodeSealed(committed[off:], resultsMaxRecord)
		if derr != nil {
			return fail("offset %d: %v", off, derr)
		}
		rec, perr := parseResultsRecord(body)
		if perr != nil {
			return fail("offset %d: %v", off, perr)
		}
		r.rows += uint64(rec.n)
		// A record wholly below its query's base holds only evicted rows:
		// skip it undecoded.
		if w := windows[rec.id]; w != nil && rec.first+uint64(rec.n)-1 >= w.base {
			rows := out[rec.id]
			if derr := rec.decodeRows(func(c uint64, row gsql.Tuple) error {
				switch {
				case c < w.base:
				case c > w.end:
					return fmt.Errorf("cursor %d is past the checkpoint's end %d", c, w.end)
				default:
					if rows[c-w.base] == nil {
						filled[rec.id]++
					}
					rows[c-w.base] = row
				}
				return nil
			}); derr != nil {
				return fail("offset %d: query %d: %v", off, rec.id, derr)
			}
		}
		off += n
	}
	for id, w := range windows {
		if w.end >= w.base && filled[id] != w.end+1-w.base {
			return fail("query %d: %d of the rows [%d, %d] present", id, filled[id], w.base, w.end)
		}
	}
	if len(data) > len(committed) {
		if err := os.Truncate(path, int64(len(committed))); err != nil {
			return nil, nil, fmt.Errorf("server: results open: truncating uncommitted tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("server: results open: %w", err)
	}
	r.f, r.size = f, int64(len(committed))
	return r, out, nil
}
