//go:build !race

package pmat

const raceEnabled = false
