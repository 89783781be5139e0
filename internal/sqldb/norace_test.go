//go:build !race

package sqldb

const raceEnabled = false
