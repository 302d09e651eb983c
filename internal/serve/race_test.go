//go:build race

package serve

// raceEnabled reports a -race build, whose sync.Pool drops a random
// quarter of Puts, so allocation counts are not reproducible.
const raceEnabled = true
