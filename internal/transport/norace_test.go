//go:build !race

package transport

// raceEnabled reports a -race build, in which allocation counts through
// sync.Pool are not exact.
const raceEnabled = false
