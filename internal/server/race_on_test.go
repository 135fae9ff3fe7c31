//go:build race

package server

// raceEnabled tells allocation budgets to stand down: under the race
// detector sync.Pool drops a share of its Puts, so pooled paths
// allocate.
const raceEnabled = true
