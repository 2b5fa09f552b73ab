//go:build !race

// Package race reports whether the race detector is compiled in. Under
// -race every instruction runs several times slower and sync.Pool drops
// puts at random, so speed bounds and pooled allocation ceilings hold only
// in plain builds; tests that check them skip when Enabled is true.
package race

// Enabled reports whether the binary was built with the race detector.
const Enabled = false
