package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"idlog/internal/core"
	"idlog/internal/fault"
	"idlog/internal/guard"
	"idlog/internal/value"
)

func testRecords() []Record {
	return []Record{
		{Session: "", Inserts: []core.Fact{
			{Pred: "e", Tuple: value.Strs("a", "b")},
			{Pred: "n", Tuple: value.Tuple{value.Int(7)}},
		}},
		{Session: "s1", Deletes: []core.Fact{
			{Pred: "e", Tuple: value.Strs("a", "b")},
		}},
		{Session: "s2", Inserts: []core.Fact{
			{Pred: "mixed", Tuple: value.Tuple{value.Str("x"), value.Int(-42), value.Str("")}},
		}, Deletes: []core.Fact{
			{Pred: "empty", Tuple: value.Tuple{}},
		}},
	}
}

// withLSNs returns recs with LSNs assigned from first upward, as Append
// does.
func withLSNs(recs []Record, first uint64) []Record {
	out := make([]Record, len(recs))
	copy(out, recs)
	for i := range out {
		out[i].LSN = first + uint64(i)
	}
	return out
}

func mustAppend(t *testing.T, l *Log, recs ...Record) []uint64 {
	t.Helper()
	lsns := make([]uint64, len(recs))
	for i, r := range recs {
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		lsns[i] = lsn
	}
	return lsns
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	l, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	want := testRecords()
	lsns := mustAppend(t, l, want...)
	for i, lsn := range lsns {
		if lsn != uint64(i+1) {
			t.Fatalf("lsns = %v, want 1..%d", lsns, len(want))
		}
	}
	if l.Entries() != len(want) {
		t.Fatalf("entries = %d, want %d", l.Entries(), len(want))
	}
	if l.LastLSN() != uint64(len(want)) {
		t.Fatalf("last lsn = %d, want %d", l.LastLSN(), len(want))
	}
	l.Close()

	l2, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !reflect.DeepEqual(got, withLSNs(want, 1)) {
		t.Fatalf("replay mismatch:\ngot  %+v\nwant %+v", got, withLSNs(want, 1))
	}
	// Appends continue after a replayed open, and LSNs keep counting.
	extra := Record{Session: "s3", Inserts: []core.Fact{{Pred: "p", Tuple: value.Strs("z")}}}
	lsn, err := l2.Append(extra)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != uint64(len(want)+1) {
		t.Fatalf("post-replay lsn = %d, want %d", lsn, len(want)+1)
	}
	l2.Close()
	_, got, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	extra.LSN = lsn
	if len(got) != len(want)+1 || !reflect.DeepEqual(got[len(got)-1], extra) {
		t.Fatalf("post-replay append lost: %+v", got)
	}
}

// TestTornTailSweep truncates a valid log at EVERY byte offset inside
// its final entry and checks recovery: the intact prefix replays, the
// torn entry is dropped whole, and the file is truncated back so new
// appends start clean.
func TestTornTailSweep(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "full.wal")
	l, _, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords()
	var sizes []int64
	for _, r := range want {
		mustAppend(t, l, r)
		sizes = append(sizes, l.Size())
	}
	l.Close()
	full, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}

	lastStart := sizes[len(sizes)-2]
	for cut := lastStart; cut < int64(len(full)); cut++ {
		path := filepath.Join(dir, "torn.wal")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, got, err := Open(path)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if !reflect.DeepEqual(got, withLSNs(want[:len(want)-1], 1)) {
			t.Fatalf("cut at %d: replayed %d records, want the %d intact ones", cut, len(got), len(want)-1)
		}
		if l.Size() != lastStart {
			t.Fatalf("cut at %d: size %d after recovery, want truncation to %d", cut, l.Size(), lastStart)
		}
		// The recovered log accepts appends and round-trips them; the
		// torn entry's LSN is reused because it was never acknowledged.
		extra := Record{Inserts: []core.Fact{{Pred: "q", Tuple: value.Strs("k")}}}
		lsn, err := l.Append(extra)
		if err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		if lsn != uint64(len(want)) {
			t.Fatalf("cut at %d: recovered lsn = %d, want %d", cut, lsn, len(want))
		}
		l.Close()
		_, got, err = Open(path)
		if err != nil {
			t.Fatalf("cut at %d: reopen: %v", cut, err)
		}
		extra.LSN = lsn
		if len(got) != len(want) || !reflect.DeepEqual(got[len(got)-1], extra) {
			t.Fatalf("cut at %d: post-recovery append did not survive", cut)
		}
	}
}

// TestCorruptBody flips a byte in the FIRST entry: that is body
// corruption, and replay must stop there rather than resynchronize on
// later garbage. (Recovery keeps the intact prefix, which is empty.)
func TestCorruptBody(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	header := l.HeaderSize()
	for _, r := range testRecords() {
		mustAppend(t, l, r)
	}
	l.Close()
	data, _ := os.ReadFile(path)
	data[header+3] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(recs) != 0 {
		t.Fatalf("replayed %d records past a corrupt first entry", len(recs))
	}
}

func TestBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	if err := os.WriteFile(path, []byte("NOTAWALFILE"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path); !errors.Is(err, ErrCorruptWAL) {
		t.Fatalf("err = %v, want ErrCorruptWAL", err)
	}
}

// TestV1Migration writes a v1-format log by hand and checks Open
// migrates it: records replay with assigned LSNs, the file is
// rewritten as v2, and appends continue the sequence.
func TestV1Migration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	want := testRecords()
	var data []byte
	data = append(data, magicV1...)
	for _, rec := range want {
		// v1 entry: payload without LSN.
		payload := appendString(nil, rec.Session)
		payload = appendFacts(payload, rec.Inserts)
		payload = appendFacts(payload, rec.Deletes)
		entry := appendUvarint(nil, uint64(len(payload)))
		entry = append(entry, payload...)
		var sum [4]byte
		binary.BigEndian.PutUint32(sum[:], crc32.ChecksumIEEE(payload))
		data = append(data, append(entry, sum[:]...)...)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, withLSNs(want, 1)) {
		t.Fatalf("migrated replay mismatch:\ngot  %+v\nwant %+v", got, withLSNs(want, 1))
	}
	extra := Record{Inserts: []core.Fact{{Pred: "p", Tuple: value.Strs("a")}}}
	lsn, err := l.Append(extra)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != uint64(len(want)+1) {
		t.Fatalf("post-migration lsn = %d, want %d", lsn, len(want)+1)
	}
	l.Close()
	// The file on disk is now v2.
	head := make([]byte, len(magicV2))
	f, _ := os.Open(path)
	_, _ = io.ReadFull(f, head)
	f.Close()
	if string(head) != magicV2 {
		t.Fatalf("migrated file magic %q, want %q", head, magicV2)
	}
}

// TestTornWriteFault drives the guard fault-injection hook: the torn
// append reports a simulated crash, and recovery after "restart" keeps
// exactly the acknowledged prefix.
func TestTornWriteFault(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	g := guard.New(nil, guard.Limits{})
	g.Inject(guard.TornWrite(3))
	l.InjectFault(g)
	recs := testRecords()
	mustAppend(t, l, recs[0], recs[1])
	if _, err := l.Append(recs[2]); !errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("third append: err = %v, want ErrSimulatedCrash", err)
	}
	// The crash poisons the log: no further appends until reopen.
	if _, err := l.Append(recs[0]); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after crash: err = %v, want ErrPoisoned", err)
	}
	l.Close()

	_, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, withLSNs(recs[:2], 1)) {
		t.Fatalf("after crash recovery: %+v, want the two acknowledged records", got)
	}
}

// TestAppendFaultPoisonsLog covers the injected write- and fsync-error
// paths: the failing append never acknowledges, the log refuses
// further appends (ErrPoisoned), and reopening recovers at least the
// acknowledged prefix.
func TestAppendFaultPoisonsLog(t *testing.T) {
	for _, point := range []string{fault.WALAppendWrite, fault.WALAppendSync} {
		t.Run(point, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "w.wal")
			l, _, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			faults := fault.New()
			l.SetFaults(faults)
			recs := testRecords()
			mustAppend(t, l, recs[0])
			faults.Arm(point, fault.Fault{Err: errors.New("no space left on device")})
			if _, err := l.Append(recs[1]); err == nil {
				t.Fatal("faulted append succeeded")
			}
			if l.Poisoned() == nil {
				t.Fatal("log not poisoned after append failure")
			}
			faults.DisarmAll()
			if _, err := l.Append(recs[2]); !errors.Is(err, ErrPoisoned) {
				t.Fatalf("append on poisoned log: err = %v, want ErrPoisoned", err)
			}
			l.Close()

			_, got, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) < 1 || !reflect.DeepEqual(got[0], withLSNs(recs[:1], 1)[0]) {
				t.Fatalf("acknowledged record lost after %s: %+v", point, got)
			}
			// The sync-fault path may leave the unacknowledged entry on
			// disk (real fsync failure is exactly this ambiguous); the
			// write-fault path must not.
			if point == fault.WALAppendWrite && len(got) != 1 {
				t.Fatalf("unacknowledged record survived a write fault: %+v", got)
			}
		})
	}
}

func TestReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRecords() {
		mustAppend(t, l, r)
	}
	last := l.LastLSN()
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if l.Entries() != 0 || l.Size() != l.HeaderSize() {
		t.Fatalf("after reset: entries=%d size=%d header=%d", l.Entries(), l.Size(), l.HeaderSize())
	}
	if l.BaseLSN() != last {
		t.Fatalf("after reset: base lsn %d, want %d", l.BaseLSN(), last)
	}
	extra := Record{Inserts: []core.Fact{{Pred: "p", Tuple: value.Strs("a")}}}
	lsn, err := l.Append(extra)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != last+1 {
		t.Fatalf("post-reset lsn = %d, want %d (LSNs must survive truncation)", lsn, last+1)
	}
	l.Close()
	_, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	extra.LSN = lsn
	if len(got) != 1 || !reflect.DeepEqual(got[0], extra) {
		t.Fatalf("after reset+append: %+v", got)
	}
}

// TestResetWith checks the atomic checkpoint rewrite: consolidation
// records land with fresh LSNs continuing the sequence, the base LSN
// advances, and a reopen replays exactly the consolidated state.
func TestResetWith(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRecords() {
		mustAppend(t, l, r)
	}
	last := l.LastLSN()
	cons := []Record{
		{Session: "s1", Inserts: []core.Fact{{Pred: "k", Tuple: value.Strs("v")}}},
		{Session: "s2", Inserts: []core.Fact{{Pred: "k", Tuple: value.Strs("w")}}},
	}
	out, err := l.ResetWith(last, cons)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].LSN != last+1 || out[1].LSN != last+2 {
		t.Fatalf("consolidation lsns %d,%d, want %d,%d", out[0].LSN, out[1].LSN, last+1, last+2)
	}
	if l.BaseLSN() != last || l.Entries() != 2 || l.LastLSN() != last+2 {
		t.Fatalf("after ResetWith: base=%d entries=%d last=%d", l.BaseLSN(), l.Entries(), l.LastLSN())
	}
	l.Close()
	_, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, out) {
		t.Fatalf("reopen after ResetWith:\ngot  %+v\nwant %+v", got, out)
	}
}

// TestConcurrentAppends races appends from many goroutines (as idlogd
// sessions do) and checks every record survives with a unique LSN in
// file order.
func TestConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rec := Record{Session: "s", Inserts: []core.Fact{{Pred: "p", Tuple: value.Ints(int64(w*per + i))}}}
				if _, err := l.Append(rec); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	l.Close()
	_, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != workers*per {
		t.Fatalf("replayed %d records, want %d", len(got), workers*per)
	}
	for i, r := range got {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d: file order must equal LSN order", i, r.LSN)
		}
	}
}

// TestStreamCodecRoundTrip frames records and controls, then decodes
// them back.
func TestStreamCodecRoundTrip(t *testing.T) {
	recs := withLSNs(testRecords(), 7)
	var b []byte
	b = AppendControlFrame(b, FrameHeartbeat, 6)
	for _, r := range recs {
		b = AppendEntryFrame(b, r)
	}
	b = AppendControlFrame(b, FrameEOS, 9)

	sr := NewStreamReader(bytes.NewReader(b))
	f, err := sr.Next()
	if err != nil || f.Type != FrameHeartbeat || f.LSN != 6 {
		t.Fatalf("heartbeat: %+v %v", f, err)
	}
	for i, want := range recs {
		f, err := sr.Next()
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if f.Type != FrameEntry || f.LSN != want.LSN || !reflect.DeepEqual(f.Rec, want) {
			t.Fatalf("entry %d: %+v, want %+v", i, f.Rec, want)
		}
	}
	if f, err = sr.Next(); err != nil || f.Type != FrameEOS || f.LSN != 9 {
		t.Fatalf("eos: %+v %v", f, err)
	}
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("after eos: %v, want io.EOF", err)
	}
}

// TestStreamTornAtEveryByte cuts a framed stream at every byte offset:
// decoding must yield only whole frames and then either a clean EOF (a
// cut between frames) or ErrTornStream — never a corrupt record.
func TestStreamTornAtEveryByte(t *testing.T) {
	recs := withLSNs(testRecords(), 1)
	var b []byte
	for _, r := range recs {
		b = AppendEntryFrame(b, r)
	}
	for cut := 0; cut <= len(b); cut++ {
		sr := NewStreamReader(bytes.NewReader(b[:cut]))
		n := 0
		for {
			f, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrTornStream) {
					t.Fatalf("cut %d: err = %v, want ErrTornStream", cut, err)
				}
				break
			}
			if !reflect.DeepEqual(f.Rec, recs[n]) {
				t.Fatalf("cut %d: frame %d decoded wrong", cut, n)
			}
			n++
		}
	}
}

// allocBytes reports the heap bytes one call of f allocates, averaged
// over a few calls.
func allocBytes(f func()) uint64 {
	const runs = 4
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestDecodeBoundsClaimedSizes: a payload or frame that claims far more
// facts, columns or bytes than it carries fails with the typed
// corruption error and allocates for what it carries, not for what it
// claims.
func TestDecodeBoundsClaimedSizes(t *testing.T) {
	const limit = 1 << 20
	payloads := map[string][]byte{
		// LSN 1, session "", 2^20 inserts and nothing after: 5 bytes.
		"fact count": appendUvarint([]byte{1, 0}, 1<<20),
		// LSN 1, session "", one insert e/65536 without values.
		"arity": appendUvarint(appendString([]byte{1, 0, 1}, "e"), 1<<16),
	}
	for name, payload := range payloads {
		var err error
		if n := allocBytes(func() { _, err = decodePayload(payload, 2) }); n >= limit {
			t.Errorf("%s: decodePayload allocated %d bytes", name, n)
		}
		if !errors.Is(err, ErrCorruptWAL) {
			t.Errorf("%s: decodePayload err = %v, want ErrCorruptWAL", name, err)
		}
		// The same payload behind a valid checksum in a stream frame.
		frame := appendUvarint([]byte{FrameEntry}, uint64(len(payload)))
		frame = binary.BigEndian.AppendUint32(append(frame, payload...), crc32.ChecksumIEEE(payload))
		if n := allocBytes(func() { _, err = NewStreamReader(bytes.NewReader(frame)).Next() }); n >= limit {
			t.Errorf("%s: stream frame allocated %d bytes", name, n)
		}
		if !errors.Is(err, ErrTornStream) {
			t.Errorf("%s: stream frame err = %v, want ErrTornStream", name, err)
		}
	}
	// A 6-byte entry frame that claims maxPayload bytes, then ends.
	frame := appendUvarint([]byte{FrameEntry}, maxPayload)
	var err error
	if n := allocBytes(func() { _, err = NewStreamReader(bytes.NewReader(frame)).Next() }); n >= limit {
		t.Errorf("truncated frame allocated %d bytes", n)
	}
	if !errors.Is(err, ErrTornStream) {
		t.Errorf("truncated frame err = %v, want ErrTornStream", err)
	}
}

// FuzzWALDecode feeds arbitrary bytes to the payload, entry and stream
// decoders. None may panic, and whatever they accept must re-encode to
// exactly the bytes it was decoded from. The seeds, log entries and
// stream frames of real records, must also decode back to those
// records.
func FuzzWALDecode(f *testing.F) {
	recs := withLSNs(testRecords(), 1)
	recs = append(recs, Record{LSN: 1 << 40, Session: "big", Inserts: []core.Fact{
		{Pred: "n", Tuple: value.Tuple{value.Int(-1 << 62), value.Int(1<<63 - 1), value.Str("ü")}},
	}})
	stream := AppendControlFrame(nil, FrameHeartbeat, 0)
	for _, rec := range recs {
		entry := EncodeEntry(rec)
		got, next, ok := decodeEntry(entry, 0, 2)
		if !ok || next != len(entry) || !reflect.DeepEqual(got, rec) {
			f.Fatalf("seed %+v does not round-trip: %+v", rec, got)
		}
		f.Add(entry)
		f.Add(AppendEntryFrame(nil, rec))
		stream = AppendEntryFrame(stream, rec)
	}
	f.Add(AppendControlFrame(stream, FrameEOS, recs[len(recs)-1].LSN))
	f.Fuzz(func(t *testing.T, data []byte) {
		if rec, err := decodePayload(data, 2); err == nil {
			if got := encodePayload(rec); !bytes.Equal(got, data) {
				t.Fatalf("payload %x re-encodes to %x", data, got)
			}
		} else if !errors.Is(err, ErrCorruptWAL) {
			t.Fatalf("payload error %v is not ErrCorruptWAL", err)
		}
		if rec, next, ok := decodeEntry(data, 0, 2); ok {
			if got := EncodeEntry(rec); !bytes.Equal(got, data[:next]) {
				t.Fatalf("entry %x re-encodes to %x", data[:next], got)
			}
		}
		sr := NewStreamReader(bytes.NewReader(data))
		var re []byte
		for {
			fr, err := sr.Next()
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrTornStream) {
					t.Fatalf("stream error %v is neither io.EOF nor ErrTornStream", err)
				}
				break
			}
			if fr.Type == FrameEntry {
				re = AppendEntryFrame(re, fr.Rec)
			} else {
				re = AppendControlFrame(re, fr.Type, fr.LSN)
			}
		}
		if !bytes.HasPrefix(data, re) {
			t.Fatalf("stream %x re-encodes its accepted frames to %x", data, re)
		}
	})
}
