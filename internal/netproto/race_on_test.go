//go:build race

package netproto

// raceEnabled tells allocation counts to stand down: the race detector
// changes what allocates.
const raceEnabled = true
