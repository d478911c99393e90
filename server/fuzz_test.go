package server

// Fuzzing for the control-protocol codec and the server's WAL record,
// state-file and results-record decoders: arbitrary bytes must never panic,
// and anything that decodes must re-encode canonically (round-trip stability is what the resume
// contract leans on).

import (
	"bytes"
	"encoding/binary"
	"testing"

	"forwarddecay/gsql"
	"forwarddecay/internal/core"
)

func FuzzControlFrameDecode(f *testing.F) {
	row := gsql.Tuple{
		{T: gsql.TInt, I: -7},
		{T: gsql.TFloat, F: 0.25},
		{T: gsql.TBool, I: 0},
		{T: gsql.TString, S: "fuzz"},
		{T: gsql.TNull},
	}
	seeds := []*Msg{
		{Type: CtHello, Req: 1, Sess: 9, Text: "token"},
		{Type: CtAttach, Req: 2, Text: "select count(*) from TCP group by time as tb"},
		{Type: CtDetach, Req: 3, Query: 1},
		{Type: CtSubscribe, Req: 4, Query: 1, Cursor: 10, Policy: PolicyDisconnect, Deadline: 500},
		{Type: CtUnsubscribe, Req: 5, Query: 1},
		{Type: CtStats, Req: 6},
		{Type: CtBye, Req: 7},
		{Type: CtRevive, Req: 13, Query: 2},
		{Type: StOK, Req: 8},
		{Type: StErr, Req: 9, Code: CodeSlowConsumer, Text: "too slow"},
		{Type: StErr, Req: 14, Code: CodeAdmission, Text: "admission: estimated cost 48 exceeds budget"},
		{Type: StAttached, Req: 10, Query: 3},
		{Type: StRow, Query: 3, Cursor: 77, Row: row},
		{Type: StGap, Query: 3, GapFrom: 5, Cursor: 9},
		{Type: StStats, Req: 11, Text: "{}"},
		{Type: StBye, Req: 12},
	}
	for _, m := range seeds {
		f.Add(appendMsgBody(nil, m))
	}
	f.Add([]byte{})
	f.Add([]byte{255, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMsg(data)
		if err != nil {
			return
		}
		// Whatever decodes must be canonical: re-encoding it yields the
		// exact input bytes.
		if out := appendMsgBody(nil, m); !bytes.Equal(out, data) {
			t.Fatalf("non-canonical frame: decode(%x) re-encodes to %x", data, out)
		}
	})
}

// FuzzJournalEntryDecode covers the catalog-journal codec, including the
// quarantine/revive ops: arbitrary bytes never panic, and any entry that
// decodes re-encodes to the exact input (the rebuild path trusts that).
func FuzzJournalEntryDecode(f *testing.F) {
	seeds := []journalEntry{
		{op: jAttach, id: 1, text: "select count(*) from TCP group by time as tb", shards: 2, epoch: 3, at: 9},
		{op: jDetach, id: 1, epoch: 3, at: 12},
		{op: jQuarantine, id: 2, reason: "breaker", ckpt: []byte{1, 2, 3, 4}},
		{op: jQuarantine, id: 3, reason: "panic"},
		{op: jRevive, id: 2, epoch: 4, at: 11},
	}
	for _, e := range seeds {
		f.Add(encodeJournalBody(e))
	}
	f.Add([]byte{})
	f.Add([]byte{99, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := decodeJournalEntry(data)
		if err != nil {
			return
		}
		if out := encodeJournalBody(e); !bytes.Equal(out, data) {
			t.Fatalf("non-canonical journal entry: decode(%x) re-encodes to %x", data, out)
		}
	})
}

func FuzzWALRecordDecode(f *testing.F) {
	f.Add([]byte{recFrame, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{recHeartbeat, hbInt, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{recHeartbeat, hbFloat, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = decodeWALRecord(data)
	})
}

// FuzzStateDecode covers the state-file decoder, which parses bytes read
// back from disk: arbitrary bytes never panic, and a current-version file
// that decodes re-encodes to the exact input (older versions decode into
// the same structure but re-encode as the current version). The fuzzer
// mutates the payload and the target seals it with a valid checksum, so
// mutations reach the parser instead of stopping at the trailer.
func FuzzStateDecode(f *testing.F) {
	st := &serverState{
		walEpoch: 4, walApplied: 9, nextQueryID: 3, resultsGen: 2, resultsLen: 160,
		queries: []queryState{
			{id: 1, text: "select count(*) from TCP group by time as tb", ckpt: []byte{1, 2, 3}, base: 5, end: 9, shards: 2},
			{id: 2, text: "select sum(len) from TCP group by time/60 as tb", base: 1, end: 0, quarantined: true, qreason: "breaker"},
		},
		sessions: map[uint64]uint64{3: 10, 8: 2},
	}
	v2 := *st
	v2.queries = append([]queryState(nil), st.queries...)
	v2.queries[0].rows = []gsql.Tuple{{{T: gsql.TInt, I: 1}, {T: gsql.TString, S: "x"}}}
	for _, b := range [][]byte{encodeState(st), encodeStateV2(&v2), encodeState(&serverState{})} {
		f.Add(b[:len(b)-8])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		data := binary.LittleEndian.AppendUint64(append([]byte(nil), payload...), core.HashBytes(payload))
		st, err := decodeState(data)
		if err != nil || data[7] != stateMagic[7] {
			return
		}
		if out := encodeState(st); !bytes.Equal(out, data) {
			t.Fatalf("non-canonical state file: decode(%x) re-encodes to %x", data, out)
		}
	})
}

// FuzzResultsRecordDecode covers the results-file record codec that
// recovery trusts to rebuild the rings: arbitrary bodies never panic, and a
// body that decodes re-encodes to the exact input.
func FuzzResultsRecordDecode(f *testing.F) {
	rows := []gsql.Tuple{
		{{T: gsql.TInt, I: -7}, {T: gsql.TFloat, F: 0.25}, {T: gsql.TString, S: "fuzz"}},
		{{T: gsql.TBool, I: 1}, {T: gsql.TNull}},
		{},
	}
	f.Add(appendResultsBody(nil, 3, 17, rows))
	f.Add(appendResultsBody(nil, 1, 1, rows[:1]))
	f.Add([]byte{})
	f.Add(make([]byte, resultsRecordHeader))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := parseResultsRecord(data)
		if err != nil {
			return
		}
		var got []gsql.Tuple
		if err := rec.decodeRows(func(_ uint64, row gsql.Tuple) error {
			got = append(got, row)
			return nil
		}); err != nil {
			return
		}
		if out := appendResultsBody(nil, rec.id, rec.first, got); !bytes.Equal(out, data) {
			t.Fatalf("non-canonical results record: decode(%x) re-encodes to %x", data, out)
		}
	})
}
