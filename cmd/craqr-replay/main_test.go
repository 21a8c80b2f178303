package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

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
