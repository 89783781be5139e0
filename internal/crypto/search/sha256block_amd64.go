//go:build amd64 && !purego

package search

import "repro/internal/crypto/cpu"

// blockSHANI is blockGeneric with the SHA extensions (sha256block_amd64.s).
//
//go:noescape
func blockSHANI(dig *[8]uint32, p []byte)

// matchAVX512 reports whether any of the up to 16 entries at entries, lane
// i the i-th, whose bit is set in lanes is an HMAC match under the
// midstates inner and outer (match_amd64.s, written by _gen). It reads no
// entry whose bit is clear.
//
//go:noescape
func matchAVX512(inner, outer *[8]uint32, entries *byte, lanes uint16) bool

// kernel is compress's kernel and matchKernel Matcher.Match's, each chosen
// once from CPUID.
var (
	kernel      = detectKernel()
	matchKernel = detectMatchKernel()
)

// detectKernel returns kernelSHANI under the condition the standard
// library's crypto/sha256 uses SHA-NI on (SHA, SSSE3, SSE4.1 and AVX with
// the OS saving its registers), and kernelGeneric otherwise.
func detectKernel() int {
	if cpu.X86HasSHA && cpu.X86HasSSSE3 && cpu.X86HasSSE41 && cpu.X86HasAVX {
		return kernelSHANI
	}
	return kernelGeneric
}

// detectMatchKernel returns matchLanes when the CPU has AVX512F with the OS
// saving the ZMM state, whether or not it has SHA-NI, and matchPerEntry
// otherwise.
func detectMatchKernel() int {
	if cpu.X86HasAVX512F {
		return matchLanes
	}
	return matchPerEntry
}

// compress runs SHA-256's compression function over each whole 64-byte
// block of p, updating the state dig.
func compress(dig *[8]uint32, p []byte) {
	if kernel == kernelSHANI {
		blockSHANI(dig, p)
		return
	}
	blockGeneric(dig, p)
}

// laneMin is the fewest entries worth a matchAVX512 call when compress
// runs on SHA-NI: the call costs about what five entries cost one at a
// time (BenchmarkMatch on one AVX-512 SHA-NI core: ~0.88 µs a call,
// ~0.19 µs an entry; 4 entries ~1.5 µs against 1.7, 5 ~2.0 against 1.9).
// With the Go compression an entry costs ~1.2 µs and every group takes the
// lanes.
const laneMin = 5

// match scans a blob of whole entries, at least one, with matchKernel:
// under matchLanes one matchAVX512 call per 16 entries, the last group
// under a mask of the entries it has — except that, on SHA-NI, a group of
// fewer than laneMin entries (a short blob, or a short last group) runs
// matchEach.
func (m *Matcher) match(blob []byte) bool {
	if matchKernel != matchLanes {
		return m.matchEach(blob)
	}
	found := false
	for off := 0; off < len(blob); off += 16 * EntrySize {
		n := min(16, (len(blob)-off)/EntrySize)
		var hit bool
		if n < laneMin && kernel == kernelSHANI {
			hit = m.matchEach(blob[off:])
		} else {
			hit = matchAVX512(&m.inner, &m.outer, &blob[off], uint16(1<<n-1))
		}
		if hit {
			found = true
		}
	}
	return found
}
