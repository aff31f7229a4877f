//go:build !race

package verify_test

// raceEnabled reports whether the race detector is active; the kernel
// differential test trims its generated corpus under -race, where
// selection and verification are an order of magnitude slower.
const raceEnabled = false
