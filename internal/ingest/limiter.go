package ingest

import "time"

// TokenBucket is the rate-limit primitive behind tenant admission control: a
// bucket holding up to one second's worth of tokens, refilled continuously
// at rate tokens per second. Each admitted unit of work (a tuple, a byte)
// takes one token; when the bucket cannot cover a request, Peek reports how
// long the producer must wait — the figure the gateway surfaces as
// Retry-After.
//
// TokenBucket is not synchronized: callers that share one bucket across
// goroutines must hold their own lock around Peek and Take (the engine's
// tenant limiter does). The clock is injectable so tests drive refill
// deterministically.
type TokenBucket struct {
	rate   float64 // tokens per second, and the bucket's capacity
	tokens float64 // current balance; may go negative (see Peek)
	last   time.Time
	now    func() time.Time
}

// NewTokenBucket builds a full bucket. rate must be positive; now defaults
// to time.Now.
func NewTokenBucket(rate float64, now func() time.Time) *TokenBucket {
	if now == nil {
		now = time.Now
	}
	return &TokenBucket{rate: rate, tokens: rate, last: now(), now: now}
}

// refill credits tokens for the time elapsed since the last refill.
func (b *TokenBucket) refill() {
	t := b.now()
	if d := t.Sub(b.last); d > 0 {
		b.tokens += d.Seconds() * b.rate
		if b.tokens > b.rate {
			b.tokens = b.rate
		}
	}
	b.last = t
}

// Peek reports the wait until n tokens would be available without taking
// anything: 0 when Take(n) may run now, else the accurate Retry-After hint.
//
// A request larger than the capacity can never be covered by a full bucket,
// so refusing it outright would wedge the producer forever. Instead such a
// request is admitted once the bucket is full and Take drives the balance
// negative: the oversized batch is paid off by future refill, throttling
// subsequent requests proportionally.
func (b *TokenBucket) Peek(n float64) time.Duration {
	if n <= 0 {
		return 0
	}
	b.refill()
	need := min(n, b.rate)
	if b.tokens >= need {
		return 0
	}
	return time.Duration((need - b.tokens) / b.rate * float64(time.Second))
}

// Take removes n tokens. Call it only once Peek(n) has reported no wait.
func (b *TokenBucket) Take(n float64) {
	if n <= 0 {
		return
	}
	b.refill()
	b.tokens -= n
}
