//go:build race

package sim

// raceEnabled reports a -race build, whose sync.Pool drops puts at random.
const raceEnabled = true
