//go:build !amd64 || purego

package search

// kernel and matchKernel are always the Go compression function and the
// per-entry scan here.
var (
	kernel      = kernelGeneric
	matchKernel = matchPerEntry
)

func detectKernel() int { return kernelGeneric }

func detectMatchKernel() int { return matchPerEntry }

// compress runs SHA-256's compression function over each whole 64-byte
// block of p, updating the state dig.
func compress(dig *[8]uint32, p []byte) { blockGeneric(dig, p) }

// match scans a blob of whole entries, at least one.
func (m *Matcher) match(blob []byte) bool { return m.matchEach(blob) }
