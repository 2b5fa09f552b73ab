//go:build !race

package main

// raceDetector is true in a -race build, where every request runs several
// times slower than the build the load gate's speed bounds were set for.
const raceDetector = false
