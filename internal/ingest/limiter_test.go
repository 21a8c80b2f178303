package ingest

import (
	"testing"
	"time"
)

// fakeClock steps time manually for deterministic refill.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }

func TestTokenBucketBasics(t *testing.T) {
	clk := newFakeClock()
	b := NewTokenBucket(10, clk.now) // 10 tokens/s, capacity 10

	if w := b.Peek(10); w != 0 {
		t.Fatalf("full bucket refused a capacity-sized take: wait %v", w)
	}
	b.Take(10)
	if w, want := b.Peek(5), 500*time.Millisecond; w != want {
		t.Fatalf("wait = %v, want %v", w, want)
	}
	clk.advance(500 * time.Millisecond)
	if w := b.Peek(5); w != 0 {
		t.Fatalf("refill did not credit tokens: wait %v", w)
	}
}

func TestTokenBucketRefillCapsAtBurst(t *testing.T) {
	clk := newFakeClock()
	b := NewTokenBucket(10, clk.now)
	clk.advance(time.Hour)
	if w := b.Peek(10); w != 0 {
		t.Fatalf("bucket should be full after an idle hour: wait %v", w)
	}
	b.Take(10)
	if w := b.Peek(1); w == 0 {
		t.Fatal("bucket exceeded its one-second capacity")
	}
}

func TestTokenBucketOversizedRequestGoesIntoDebt(t *testing.T) {
	clk := newFakeClock()
	b := NewTokenBucket(10, clk.now)

	// A request larger than the capacity is admitted once the bucket is full
	// and drives the balance negative rather than wedging the producer
	// forever.
	if w := b.Peek(25); w != 0 {
		t.Fatalf("oversized request refused by a full bucket: wait %v", w)
	}
	b.Take(25)
	// Debt is 15 tokens; the next 1-token take must wait 1.6s
	// (15 tokens of debt + 1 token requested, at 10 tokens/s).
	wait := b.Peek(1)
	if want := 1600 * time.Millisecond; wait != want {
		t.Fatalf("wait = %v, want %v", wait, want)
	}
	clk.advance(wait)
	if w := b.Peek(1); w != 0 {
		t.Fatalf("debt not paid off after the advertised wait: wait %v", w)
	}
}

func TestTokenBucketPeek(t *testing.T) {
	clk := newFakeClock()
	b := NewTokenBucket(10, clk.now)
	if w := b.Peek(5); w != 0 {
		t.Fatalf("Peek on full bucket = %v, want 0", w)
	}
	b.Take(10)
	if w := b.Peek(5); w != 500*time.Millisecond {
		t.Fatalf("Peek = %v, want 500ms", w)
	}
	// Peek must not consume tokens.
	clk.advance(500 * time.Millisecond)
	if w := b.Peek(5); w != 0 {
		t.Fatalf("Peek consumed tokens: wait %v", w)
	}
}

func TestTokenBucketDefaultBurst(t *testing.T) {
	clk := newFakeClock()
	b := NewTokenBucket(42, clk.now)
	if w := b.Peek(42); w != 0 {
		t.Fatalf("burst should equal one second of rate: wait %v", w)
	}
	b.Take(42)
	if w := b.Peek(1); w == 0 {
		t.Fatal("burst larger than rate")
	}
}
