//go:build !race

package fed_test

const raceEnabled = false
