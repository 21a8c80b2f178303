package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/client"
)

// statusShape is one /status body, the shape's name, and the session whose
// engine rendered it.
type statusShape struct {
	shape string
	sess  *Session
	body  []byte
}

// statusFixture is what statusShapes leaves behind: the four /status shapes,
// the node's answer to the recover that adopted the durable session, and the
// node that recovered it (still serving it).
type statusFixture struct {
	shapes    []statusShape
	recovered []byte
	node      *httptest.Server
}

// answer issues one bodiless request through doJSON and returns the JSON
// value it was answered with.
func answer(t *testing.T, method, url string, want int) []byte {
	t.Helper()
	var raw json.RawMessage
	doJSON(t, http.DefaultClient, method, url, "", want, &raw)
	return raw
}

// pushBody renders an ingest batch of n rain observations spread over the
// 8×8 region and event times [0, n/40), asserting watermark wm.
func pushBody(n int, wm float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"attr":"rain","watermark":%g,"observations":[`, wm)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"id":%d,"t":%g,"x":%g,"y":%g,"value":%d}`,
			i+1, float64(i)/40, float64(i*37%80)/10, float64(i*53%80)/10, 1+i%7)
	}
	b.WriteString("]}")
	return b.String()
}

// statusShapes drives a session into each shape /status takes and reads it:
//   - "idle": a session with no query that has run no epoch;
//   - "simulated": a non-durable simulated session after a few epochs;
//   - "durable": an external durable session with limits and adaptive rates
//     on, after a push, so its watermark is finite;
//   - "recovered": that session adopted by a second manager over the same
//     root after the first one went down;
//   - "mixed": a mixed session fed one push.
//
// check, when not nil, sees each shape as soon as it is read, while its
// engine still holds what the body reports.
func statusShapes(t *testing.T, check func(statusShape)) statusFixture {
	t.Helper()
	var fx statusFixture
	read := func(ts *httptest.Server, m *Manager, name, shape string) statusShape {
		t.Helper()
		sess, err := m.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		sh := statusShape{shape: shape, sess: sess, body: answer(t, "GET", ts.URL+"/v1/sessions/"+name+"/status", 200)}
		if check != nil {
			check(sh)
		}
		return sh
	}
	post := func(url, body string, want int) {
		t.Helper()
		doJSON(t, http.DefaultClient, "POST", url, body, want, nil)
	}
	serve := func(m *Manager) *httptest.Server {
		hs, err := NewManagerHTTPServer(m, "")
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(hs)
		t.Cleanup(ts.Close)
		return ts
	}

	m := newManager(t, ManagerConfig{})
	ts := serve(m)
	post(ts.URL+"/v1/sessions", `{"name":"idle"}`, 201)
	idle := read(ts, m, "idle", "idle")
	post(ts.URL+"/v1/sessions", `{"name":"simulated","seed":5}`, 201)
	post(ts.URL+"/v1/sessions/simulated/queries", "ACQUIRE rain FROM RECT(0,0,3,3) RATE 5", 201)
	post(ts.URL+"/v1/sessions/simulated/step?n=4", "", 200)
	simulated := read(ts, m, "simulated", "simulated")

	root := t.TempDir()
	m1 := newDurableNodeManager(t, root)
	ts1 := serve(m1)
	post(ts1.URL+"/v1/sessions", `{"name":"durable","adaptiveRates":true,"snapshotEvery":2,`+
		`"limits":{"rateTuplesPerSec":100000,"maxQueries":8}}`, 201)
	post(ts1.URL+"/v1/sessions/durable/queries", "ACQUIRE rain FROM RECT(0,0,3,3) RATE 5", 201)
	post(ts1.URL+"/v1/sessions/durable/ingest", pushBody(200, 5), 200)
	post(ts1.URL+"/v1/sessions/durable/step?n=5", "", 200)
	durable := read(ts1, m1, "durable", "durable")
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	m2 := newDurableNodeManager(t, root)
	t.Cleanup(func() { _ = m2.Close() })
	fx.node = serve(m2)
	fx.recovered = answer(t, "POST", fx.node.URL+"/v1/node/sessions/durable/recover", 200)
	recovered := read(fx.node, m2, "durable", "recovered")

	post(ts.URL+"/v1/sessions", `{"name":"mixed","seed":9,"source":"mixed"}`, 201)
	post(ts.URL+"/v1/sessions/mixed/queries", "ACQUIRE rain FROM RECT(0,0,3,3) RATE 4", 201)
	post(ts.URL+"/v1/sessions/mixed/ingest", pushBody(80, 2), 200)
	post(ts.URL+"/v1/sessions/mixed/step?n=2", "", 200)
	mixed := read(ts, m, "mixed", "mixed")

	fx.shapes = []statusShape{idle, simulated, durable, recovered, mixed}
	return fx
}

// maskedLayout renders a JSON body one token per line, indented by depth,
// with every number replaced by #: the body's layout — key order, nesting,
// the null and [] conventions — without its measurements.
func maskedLayout(t *testing.T, body []byte) string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var b strings.Builder
	depth := 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return b.String()
		}
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if d, ok := tok.(json.Delim); ok && (d == '}' || d == ']') {
			depth--
		}
		b.WriteString(strings.Repeat("  ", depth))
		switch v := tok.(type) {
		case json.Delim:
			b.WriteString(v.String())
			if v == '{' || v == '[' {
				depth++
			}
		case json.Number:
			b.WriteByte('#')
		case string:
			fmt.Fprintf(&b, "%q", v)
		case bool:
			fmt.Fprint(&b, v)
		case nil:
			b.WriteString("null")
		}
		b.WriteByte('\n')
	}
}

// TestStatusBodyLayout holds each /status shape to the layout recorded in
// testdata/status_layout.golden before /status was declared as a type: a
// field declared out of order, or a null/[] convention flipped, fails here.
func TestStatusBodyLayout(t *testing.T) {
	want, err := os.ReadFile("testdata/status_layout.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, sh := range statusShapes(t, nil).shapes {
		fmt.Fprintf(&got, "== %s ==\n%s", sh.shape, maskedLayout(t, sh.body))
	}
	if got.String() != string(want) {
		t.Errorf("/status layout differs from testdata/status_layout.golden; got:\n%s", got.String())
	}
}

// TestDeclaredBodiesDecodeStrictly holds the bodies client and the server
// declare to what they render: each /status shape, the node control bodies
// and a node's 4xx decode, with unknown fields refused, to the values the
// engine or the manager holds.
func TestDeclaredBodiesDecodeStrictly(t *testing.T) {
	wm := func(v float64) *float64 { return &v }
	fx := statusShapes(t, func(sh statusShape) {
		e := sh.sess.Engine
		var got client.Status
		decodeStrict(t, sh.body, &got)
		if want := toStatusJSON(sh.sess.Name, e); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: /status decoded %+v, want %+v", sh.shape, got, want)
		}
		ist, ds := e.IngestStats(), e.Durability()
		if got.Session != sh.sess.Name || got.Epochs != e.Epochs() || got.Queries != len(e.Queries()) ||
			got.Ingested != ist.Ingested || len(got.Budgets) != len(e.Budgets().Snapshots()) ||
			got.Adaptive != e.AdaptiveEnabled() || !reflect.DeepEqual(got.Durability, ds) {
			t.Errorf("%s: /status %+v disagrees with its engine", sh.shape, got)
		}
		// What each shape is for.
		var bad bool
		switch sh.shape {
		case "idle":
			bad = got.Budgets == nil || len(got.Budgets) != 0 || got.AdaptiveSlots != nil ||
				got.Sched != (client.Sched{Weight: 1}) || got.Epochs != 0 || got.Durability != nil
		case "simulated":
			bad = got.Source != "simulated" || got.Durability != nil || got.Limits != nil ||
				got.AdaptiveSlots != nil || got.Watermark != nil || got.Sched.EpochsServed != 4
		case "durable":
			bad = got.Source != "external" || got.Durability.Recovered || len(got.AdaptiveSlots) == 0 ||
				!reflect.DeepEqual(got.Limits, &TenantLimits{RateTuplesPerSec: 100000, MaxQueries: 8}) ||
				!reflect.DeepEqual(got.Watermark, wm(5)) || got.Ingested != 200 || got.Sched.EpochsServed != 5
		case "recovered":
			// A recovered session's gate is new: sched is there, at zero.
			bad = !got.Durability.Recovered || !got.Durability.SnapshotVerified || got.Durability.TornTail ||
				got.Epochs != 5 || got.Sched != (client.Sched{Weight: 1})
		case "mixed":
			bad = got.Source != "mixed" || got.Ingested != 80 || !reflect.DeepEqual(got.Watermark, wm(2))
		}
		if bad {
			t.Errorf("%s: /status = %+v", sh.shape, got)
		}
	})

	node := fx.node.URL
	var rec client.Recovered
	decodeStrict(t, fx.recovered, &rec)
	if rec != (client.Recovered{Recovered: true, Session: "durable"}) {
		t.Errorf("recover decoded %+v", rec)
	}
	decodeStrict(t, answer(t, "POST", node+"/v1/node/sessions/durable/recover", 200), &rec)
	if rec != (client.Recovered{Recovered: false, Session: "durable"}) {
		t.Errorf("second recover decoded %+v", rec)
	}
	var durable client.DurableSessions
	decodeStrict(t, answer(t, "GET", node+"/v1/node/durable", 200), &durable)
	if !reflect.DeepEqual(durable.Sessions, []string{"durable"}) {
		t.Errorf("durable list decoded %+v", durable)
	}
	var rel client.Released
	decodeStrict(t, answer(t, "POST", node+"/v1/node/sessions/durable/release", 200), &rel)
	if rel != (client.Released{Released: true, Session: "durable"}) {
		t.Errorf("release decoded %+v", rel)
	}
	var refusal client.ErrorBody
	decodeStrict(t, answer(t, "POST", node+"/v1/node/sessions/durable/release", 404), &refusal)
	if want := fmt.Sprintf("%v: %q", ErrNoSession, "durable"); refusal.Error != want {
		t.Errorf("404 decoded %+v, want error %q", refusal, want)
	}
}
