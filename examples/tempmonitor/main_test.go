package main

import (
	"bytes"
	"os"
	"testing"
)

// TestStdoutGolden runs the example and compares what it prints with
// testdata/stdout.golden byte for byte. The run is seeded and serial, so a
// byte that moves is a change in what the library fabricates.
func TestStdoutGolden(t *testing.T) {
	out, err := os.Create(t.TempDir() + "/stdout")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	defer func() { os.Stdout = stdout }()
	main()
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stdout differs from testdata/stdout.golden:\n%s", got)
	}
}
