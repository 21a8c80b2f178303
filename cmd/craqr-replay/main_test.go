package main

import (
	"bufio"
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/world"
)

// TestListSessionsByName: the listing prints each durable session's own
// name — not the escaped directory it lives in — and -session resolves
// exactly the names listed, to the directory that holds the session.
func TestListSessionsByName(t *testing.T) {
	root := t.TempDir()
	template := world.Template(20)
	template.Durability.Dir = root
	m, err := server.NewManager(server.ManagerConfig{NewEngine: server.NewEngineFactory(template, world.Fields), DurabilityDir: root})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"plain", "a b", "x/y"} {
		if _, err := m.Create(server.SessionSpec{Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := listSessions(&out, root); err != nil {
		t.Fatal(err)
	}
	if got, want := out.String(), "a b\nplain\nx/y\n"; got != want {
		t.Fatalf("listing = %q, want %q", got, want)
	}
	spec, err := findSession(root, "a b")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := server.ConfigForSpec(template, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(cfg.Durability.Dir, "session.json")); err != nil {
		t.Fatalf("session %q resolves to %s: %v", spec.Name, cfg.Durability.Dir, err)
	}
	if _, err := findSession(root, "a+b"); err == nil {
		t.Fatal(`findSession("a+b") found the directory name, want only session names`)
	}
}

// TestDumpMatchesStream: -dump of a recovered session writes exactly the
// tuple lines GET …/results/{q}/stream?cursor=0 served for the same
// retained tuples before the daemon stopped — result records, not Go field
// names.
func TestDumpMatchesStream(t *testing.T) {
	root := t.TempDir()
	template := world.Template(40)
	template.Durability.Dir = root
	m, err := server.NewManager(server.ManagerConfig{NewEngine: server.NewEngineFactory(template, world.Fields), DurabilityDir: root})
	if err != nil {
		t.Fatal(err)
	}
	hs, err := server.NewManagerHTTPServer(m, "")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(hs)
	defer ts.Close()
	sess, err := m.Create(server.SessionSpec{Name: "d", Retention: 32})
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Engine.Submit(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 6, 6), Rate: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := sess.Engine.Step(); err != nil {
			t.Fatal(err)
		}
	}
	store, err := sess.Engine.ResultStore(q.ID)
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() == 0 || store.Dropped() == 0 {
		t.Fatalf("retained %d tuples, evicted %d: the case needs both", store.Len(), store.Dropped())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/sessions/d/results/"+q.ID+"/stream?cursor=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	sc := bufio.NewScanner(resp.Body)
	for n := 0; n < store.Len() && sc.Scan(); {
		if line := sc.Text(); !strings.HasPrefix(line, `{"dropped":`) {
			want.WriteString(line + "\n")
			n++
		}
	}
	cancel()
	resp.Body.Close()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	spec, err := findSession(root, "d")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := server.ConfigForSpec(template, spec)
	if err != nil {
		t.Fatal(err)
	}
	e, err := replay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	var got bytes.Buffer
	if err := dumpResults(&got, e, q.ID); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("dump differs from the stream:\ndump:\n%s\nstream:\n%s", got.String(), want.String())
	}
}
