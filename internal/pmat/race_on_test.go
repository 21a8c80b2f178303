//go:build race

package pmat

// raceEnabled: under the race detector sync.Pool drops a share of what is
// put into it, so tests bounding what a pooled path allocates skip the bound.
const raceEnabled = true
