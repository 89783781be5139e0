//go:build race

package sharded

// raceEnabled: the race detector changes what escapes and what allocates,
// so byte budgets are not meaningful under it.
const raceEnabled = true
