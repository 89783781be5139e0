//go:build race

package feistel

// raceEnabled: the race detector instruments memory accesses and changes
// what escapes, so allocation counts are not meaningful under it.
const raceEnabled = true
