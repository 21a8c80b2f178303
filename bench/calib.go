package main

import "time"

// calibBuf is the 8 MB the calibration kernel streams through.
var calibBuf = make([]uint64, 1<<20)

// calibSink keeps the kernel's result live so the compiler cannot drop it.
var calibSink uint64

// calibrate times a frozen kernel — a fixed count of dependent ALU steps,
// then fixed passes over 8 MB of memory — sized to ≈200 ms on the machine
// that defined the benchmark. It runs before and after every round: it does
// the same work on every commit, so when its two readings disagree the host
// changed speed mid-round, not the code under test. The constants are part
// of the benchmark's definition; do not retune them.
func calibrate() float64 {
	start := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 60_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	sum := x
	for pass := 0; pass < 24; pass++ {
		for i := range calibBuf {
			calibBuf[i] += sum
			sum += calibBuf[i]
		}
	}
	calibSink = sum
	return float64(time.Since(start).Nanoseconds())
}
