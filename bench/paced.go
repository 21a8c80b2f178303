package main

import (
	"context"
	"math"
	"time"
)

// The ungated open-loop phase: independent sensors do not wait for acks, so
// after ingest_flood's closed-loop window the same frames are sent on a
// fixed schedule that does not slow when the daemon does. Every latency is
// timed from the frame's due time, so a stall charges the frames queued
// behind it. At ≈35% utilisation these numbers do not repeat on a shared
// two-core host (idle gaps, wake-ups, cold caches), which is why they are
// per-layer records and never gated.
const (
	pacedTuplesPerS = 400_000
	pacedSeconds    = 6
)

type pacedResult struct {
	ackP50Ms, freshP50Ms, freshP99Ms, genLateP99Ms float64
	lastEpoch                                      int // one past the last epoch pushed
}

// runPaced continues the session at epoch `from` on the open-loop schedule.
// It reuses the closed loop's pusher (same connection, same accounting), so
// a refused push counts as a failed operation of the workload.
func runPaced(ctx context.Context, a *api, w workload, c *corpus, sub *subscriber, p *pusher, from int, dur time.Duration) (*pacedResult, error) {
	interval := time.Duration(float64(w.tuplesPerFrame) / pacedTuplesPerS * float64(time.Second))
	frames := int(dur / interval)
	frames -= frames % w.framesPerEpoch // whole epochs
	res := &pacedResult{}
	var ackMs, lateMs []float64
	wmDue := map[int]time.Time{}
	start := time.Now()
	e := from
	for i := 0; i < frames; i++ {
		f := i % w.framesPerEpoch
		tuples, wm := c.frame(e, f)
		var err error
		if p.body, err = encode(p.body[:0], p.asJSON, tuples, wm); err != nil {
			return nil, err
		}
		due := start.Add(time.Duration(i) * interval)
		// Sleep most of the way, spin the rest: the schedule must not drift
		// with timer granularity.
		if d := time.Until(due); d > 300*time.Microsecond {
			time.Sleep(d - 200*time.Microsecond)
		}
		for time.Now().Before(due) {
		}
		sent, _, err := p.post(ctx, len(tuples))
		if err != nil {
			return nil, err
		}
		ackMs = append(ackMs, time.Since(due).Seconds()*1e3)
		lateMs = append(lateMs, sent.Sub(due).Seconds()*1e3)
		if !math.IsNaN(wm) {
			wmDue[e] = due
			e++
		}
	}
	res.lastEpoch = e
	if _, err := sub.waitEpoch(ctx, e-1); err != nil {
		return nil, err
	}
	total, err := a.probeTotal(ctx, sessionName)
	if err != nil {
		return nil, err
	}
	if err := sub.waitTotal(ctx, total); err != nil {
		return nil, err
	}
	snap := sub.snapshot()
	var fresh []float64
	for ep := from; ep < e; ep++ {
		fresh = append(fresh, snap.first[ep].Sub(wmDue[ep]).Seconds()*1e3)
	}
	res.ackP50Ms = quantile(ackMs, 0.50)
	res.genLateP99Ms = quantile(lateMs, 0.99)
	res.freshP50Ms = quantile(fresh, 0.50)
	res.freshP99Ms = quantile(fresh, 0.99)
	return res, nil
}
