//go:build race

package service

// raceEnabled reports a race-detector build, where sync.Pool drops a
// random share of Puts, so allocation counts are not meaningful.
const raceEnabled = true
