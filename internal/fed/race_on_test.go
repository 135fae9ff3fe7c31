//go:build race

package fed_test

// raceEnabled tells allocation budgets to stand down: under the race
// detector sync.Pool drops a share of its Puts, so pooled paths
// allocate.
const raceEnabled = true
