//go:build !race

package serve

// raceEnabled reports whether the race detector is active. Allocation counts
// are skipped under it: it makes sync.Pool drop items at random.
const raceEnabled = false
