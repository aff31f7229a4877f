//go:build race

package cfg_test

// raceEnabled reports whether the race detector is active; the kernel
// differential test trims its generated corpus under -race, where path
// enumeration is an order of magnitude slower.
const raceEnabled = true
