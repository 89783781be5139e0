//go:build race

package sqldb

// raceEnabled: the race detector changes what escapes and what allocates,
// so byte and allocation budgets are not meaningful under it.
const raceEnabled = true
