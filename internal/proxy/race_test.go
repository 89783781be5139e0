//go:build race

package proxy

// raceEnabled: the race detector drops sync.Pool items at random, so
// math/big's pooled temporaries allocate and allocation counts are not
// meaningful.
const raceEnabled = true
