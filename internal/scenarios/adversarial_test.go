package scenarios

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"net/http"
	"testing"

	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/wal"
	"repro/internal/wire"
)

// frameCountOffset walks a binary frame's attr table and returns the byte
// offset of the u32 tuple-count field, so tamper helpers can corrupt it
// without hard-coding the table layout.
func frameCountOffset(t *testing.T, frame []byte) int {
	t.Helper()
	le := binary.LittleEndian
	off := 12 + 8 // header + watermark
	n := int(le.Uint16(frame[off:]))
	off += 2
	for i := 0; i < n; i++ {
		off += 2 + int(le.Uint16(frame[off:]))
	}
	return off + 2 // skip default-attr ref
}

// rewriteCRC recomputes the header CRC over the (possibly tampered)
// payload so corruption tests exercise the structural validators, not just
// the checksum.
func rewriteCRC(frame []byte) {
	binary.LittleEndian.PutUint32(frame[8:12], crc32.ChecksumIEEE(frame[12:]))
}

// TestScenarioAdversarialPushes throws a hostile producer at a durable
// session: duplicate client IDs split across batches, non-finite values
// smuggled through the binary framing, frames whose declared lengths and
// tuple counts disagree with the bytes present, and oversized bodies.
// Every attack must be refused with a typed ack or status code, none may
// corrupt engine state, and — the robustness core — the WAL must replay to
// exactly the same session afterwards, as if the attacks never happened.
func TestScenarioAdversarialPushes(t *testing.T) {
	root := t.TempDir()
	template := worldConfig()
	template.Source = server.SourceConfig{Mode: server.SourceExternal}
	template.Durability = server.DurabilityConfig{Dir: root, Fsync: wal.FsyncAlways}
	cl := startCluster(t, template, server.ManagerConfig{DurabilityDir: root})

	do(t, cl.c, "POST", cl.url("/v1/sessions"),
		mkSpec(t, map[string]interface{}{"name": "tgt", "source": "external", "tolerance": 0.5}), 201, nil)
	var q struct {
		ID string `json:"id"`
	}
	do(t, cl.c, "POST", cl.url("/v1/sessions/tgt/queries"),
		"ACQUIRE rain FROM RECT(0,0,8,8) RATE 3", 201, &q)
	ingestURL := cl.url("/v1/sessions/tgt/ingest")

	tp := func(id uint64, tt float64) stream.Tuple {
		return stream.Tuple{ID: id, Attr: "rain", T: tt, X: 1, Y: 1, Value: 1, Sensor: -1}
	}

	// Duplicate client IDs across separate batches: the first occurrence is
	// accepted, every replayed ID after it is acked as a duplicate — the
	// at-most-once contract a retrying (or replay-attacking) producer sees.
	a := pushJSON(t, cl.c, ingestURL, wire.Batch{Attr: "rain", Watermark: math.NaN(),
		Tuples: []stream.Tuple{tp(501, 0.2), tp(502, 0.4)}})
	if a.Accepted != 2 || a.Duplicates != 0 {
		t.Fatalf("first batch: %+v", a)
	}
	a = pushJSON(t, cl.c, ingestURL, wire.Batch{Attr: "rain", Watermark: math.NaN(),
		Tuples: []stream.Tuple{tp(501, 0.2), tp(502, 0.4), tp(503, 0.6)}})
	if a.Accepted != 1 || a.Duplicates != 2 {
		t.Fatalf("replayed batch: %+v (want accepted=1 duplicates=2)", a)
	}

	// Non-finite values via the binary framing (no JSON parser to catch
	// them): NaN and ±Inf decode fine at the wire layer — IEEE bits are
	// IEEE bits — and must be refused per-tuple by validation, not crash
	// or poison the epoch.
	evil := wire.Batch{Attr: "rain", Watermark: math.NaN(), Tuples: []stream.Tuple{
		{Attr: "rain", T: 0.3, X: 1, Y: 1, Value: math.NaN(), Sensor: -1},
		{Attr: "rain", T: 0.3, X: 2, Y: 2, Value: math.Inf(1), Sensor: -1},
		{Attr: "rain", T: math.Inf(-1), X: 2, Y: 2, Value: 1, Sensor: -1},
		{ID: 504, Attr: "rain", T: 0.8, X: 3, Y: 3, Value: 1, Sensor: -1}, // the one honest tuple
	}}
	frame, err := wire.AppendFrame(nil, evil)
	if err != nil {
		t.Fatal(err)
	}
	status, _, data := postRaw(t, cl.c, ingestURL, wire.ContentTypeBinary, frame)
	if status != http.StatusOK {
		t.Fatalf("non-finite frame = %d: %s", status, data)
	}
	if err := unmarshalAck(data, &a); err != nil {
		t.Fatal(err)
	}
	if a.Accepted != 1 || a.Rejected != 3 {
		t.Fatalf("non-finite frame ack: %+v (want accepted=1 rejected=3)", a)
	}

	// Structurally hostile frames: every one must bounce with 400 (no
	// partial application, no connection damage). The tampered-count frame
	// recomputes the CRC so it exercises the length validator itself.
	good, err := wire.AppendFrame(nil, wire.Batch{Attr: "rain", Watermark: math.NaN(),
		Tuples: []stream.Tuple{tp(0, 0.9)}})
	if err != nil {
		t.Fatal(err)
	}
	tamperCount := append([]byte(nil), good...)
	co := frameCountOffset(t, tamperCount)
	binary.LittleEndian.PutUint32(tamperCount[co:], binary.LittleEndian.Uint32(tamperCount[co:])+1)
	rewriteCRC(tamperCount)
	tamperPayload := append([]byte(nil), good...)
	tamperPayload[len(tamperPayload)-1] ^= 0xFF // CRC now stale
	attacks := []struct {
		name string
		body []byte
	}{
		{"trailing-garbage", append(append([]byte(nil), good...), "overflow!"...)},
		{"truncated", good[:len(good)-10]},
		{"bad-magic", append([]byte("XQB1"), good[4:]...)},
		{"crc-mismatch", tamperPayload},
		{"count-mismatch", tamperCount},
		{"empty", nil},
	}
	for _, atk := range attacks {
		status, _, data := postRaw(t, cl.c, ingestURL, wire.ContentTypeBinary, atk.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s frame = %d, want 400: %s", atk.name, status, data)
		}
	}

	// Oversized declared frame: a header announcing a payload past
	// MaxFrameBytes is refused with 413 by arithmetic alone — no buffer is
	// ever sized from the hostile length.
	hugeFrame := make([]byte, 12)
	copy(hugeFrame, wire.Magic[:])
	binary.LittleEndian.PutUint32(hugeFrame[4:8], uint32(wire.MaxFrameBytes+1))
	status, _, data = postRaw(t, cl.c, ingestURL, wire.ContentTypeBinary, hugeFrame)
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized declared frame = %d, want 413: %s", status, data)
	}
	// A multi-megabyte junk body must bounce too (as garbage or as too
	// large — either refusal is fine, crashing or absorbing it is not).
	huge := bytes.Repeat([]byte{'A'}, 8<<20+1)
	status, _, data = postRaw(t, cl.c, ingestURL, wire.ContentTypeBinary, huge)
	if status != http.StatusBadRequest && status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized junk body = %d, want 400 or 413: %s", status, data)
	}

	// The session still works: close an epoch, read results, and record the
	// exact post-attack state.
	pushJSON(t, cl.c, ingestURL, wire.Batch{Attr: "rain", Watermark: 1})
	do(t, cl.c, "POST", cl.url("/v1/sessions/tgt/step?n=1"), "", 200, nil)
	results := getBody(t, cl.c, cl.url("/v1/sessions/tgt/results/"+q.ID+"?limit=1000"))
	if len(results) == 0 {
		t.Fatal("no results after attacks")
	}
	st := getStatus(t, cl.c, cl.url("/v1/sessions/tgt/status"))
	if got := int(statusNum(t, st, "ingestDuplicates")); got != 2 {
		t.Errorf("ingestDuplicates = %d, want 2", got)
	}
	if got := int(statusNum(t, st, "ingestRejected")); got != 3 {
		t.Errorf("ingestRejected = %d, want 3", got)
	}
	liveStats := fmt.Sprintf("ingested=%v dup=%v rej=%v epochs=%v",
		st["ingested"], st["ingestDuplicates"], st["ingestRejected"], st["epochs"])

	// WAL never corrupted: recover the directory in a second manager and
	// demand the identical session back — accepted history only, with no
	// torn tail and no trace of the refused garbage.
	cl.close()
	m2, err := server.NewManager(server.ManagerConfig{
		NewEngine:     server.NewEngineFactory(template, worldFields),
		DurabilityDir: root,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if _, err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	sess, err := m2.Get("tgt")
	if err != nil {
		t.Fatal(err)
	}
	ds := sess.Engine.Durability()
	if !ds.Recovered || ds.TornTail {
		t.Fatalf("durability after attacks: %+v (want clean recovery)", ds)
	}
	is := sess.Engine.IngestStats()
	recStats := fmt.Sprintf("ingested=%v dup=%v rej=%v epochs=%v",
		float64(is.Ingested), float64(is.Duplicates), float64(is.Rejected), float64(sess.Engine.Epochs()))
	if recStats != liveStats {
		t.Fatalf("replayed state diverged:\n live: %s\n replay: %s", liveStats, recStats)
	}
	store, err := sess.Engine.ResultStore(q.ID)
	if err != nil {
		t.Fatal(err)
	}
	tuples, _, _ := store.ReadFrom(0, 1000, nil)
	replayed, err := json.Marshal(tuples)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) <= 2 {
		t.Fatal("replay produced no results")
	}
}
