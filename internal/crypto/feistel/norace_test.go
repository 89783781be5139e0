//go:build !race

package feistel

const raceEnabled = false
