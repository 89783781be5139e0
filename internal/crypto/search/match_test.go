package search

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/crypto/prf"
)

// referenceMatch is Match as it was before Matcher (commit 581f1a3),
// verbatim: one prf.Sum — a fresh HMAC and its key schedule — per stored
// word. It is the oracle Matcher is held to.
func referenceMatch(blob []byte, token Token) bool {
	if len(blob)%EntrySize != 0 {
		return false
	}
	found := 0
	for off := 0; off+EntrySize <= len(blob); off += EntrySize {
		salt := blob[off : off+saltSize]
		mac := blob[off+saltSize : off+EntrySize]
		want := prf.Sum(token, salt)[:WordSize]
		// Constant-time per entry; scan all entries regardless.
		found |= subtle.ConstantTimeCompare(mac, want)
	}
	return found == 1
}

var (
	kernelNames      = map[int]string{kernelGeneric: "generic", kernelSHANI: "sha-ni"}
	matchKernelNames = map[int]string{matchPerEntry: "per-entry", matchLanes: "16-lane"}
)

// kernelPair names a compress kernel and a match kernel together.
func kernelPair(k, mk int) string { return kernelNames[k] + "/" + matchKernelNames[mk] }

// forEachKernel runs f with each pair of a compression kernel and a match
// kernel that this CPU and build support forced in turn. The two are chosen
// apart: an AVX-512 CPU may lack SHA-NI, and a SHA-NI one AVX-512.
func forEachKernel(f func(name string)) {
	defer func(k, mk int) { kernel, matchKernel = k, mk }(kernel, matchKernel)
	for _, k := range choices(kernelGeneric, detectKernel()) {
		for _, mk := range choices(matchPerEntry, detectMatchKernel()) {
			kernel, matchKernel = k, mk
			f(kernelPair(k, mk))
		}
	}
}

// TestReportMatchKernel logs the kernels this process chose, for
// TestMatchKernelFollowsGODEBUG to read from a child, and the pairs
// forEachKernel forces here, so that a run's log says which ones it tested.
func TestReportMatchKernel(t *testing.T) {
	t.Log("kernel=" + kernelPair(kernel, matchKernel))
	var forced []string
	forEachKernel(func(name string) { forced = append(forced, name) })
	t.Log("search: " + strings.Join(forced, " "))
}

// choices returns the kernel every CPU has and, if it differs, the one
// this CPU selects.
func choices(baseline, detected int) []int {
	if detected == baseline {
		return []int{baseline}
	}
	return []int{baseline, detected}
}

// TestSearchKnownAnswer pins SEARCH blobs stored in the DBMS: every blob in
// testdata/known_answer.json was written by EncryptWords at commit 581f1a3
// under the file's key, and each probe word must match it exactly as the
// Match of that commit did. The vectors include 12-word blobs (the
// analytic workload's shape), an empty blob, blobs of malformed length,
// and a 15-byte word, which collides with its 14-byte prefix because
// words are truncated to WordSize-2 bytes.
func TestSearchKnownAnswer(t *testing.T) {
	raw, err := os.ReadFile("testdata/known_answer.json")
	if err != nil {
		t.Fatal(err)
	}
	var kat struct {
		Key   string
		Blobs []struct {
			Name, Hex string
			Probes    []struct {
				Word  string
				Match bool
			}
		}
	}
	if err := json.Unmarshal(raw, &kat); err != nil {
		t.Fatal(err)
	}
	c := New([]byte(kat.Key))
	probes := 0
	for _, b := range kat.Blobs {
		blob, err := hex.DecodeString(b.Hex)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for _, p := range b.Probes {
			tok := c.TokenFor(p.Word)
			if got := NewMatcher(tok).Match(blob); got != p.Match {
				t.Errorf("%s: word %q matched %v, recorded %v", b.Name, p.Word, got, p.Match)
			}
			if got := Match(blob, tok); got != p.Match {
				t.Errorf("%s: Match(word %q) = %v, recorded %v", b.Name, p.Word, got, p.Match)
			}
			probes++
		}
	}
	if len(kat.Blobs) < 10 || probes < 100 {
		t.Fatalf("%d blobs, %d probes: the vector file is truncated", len(kat.Blobs), probes)
	}
}

// randomBlob returns a blob to match tok against: entries made under tok
// (so some blobs match), tok's MACs with one bit flipped, entries under
// other tokens, random bytes, and lengths that are not a multiple of
// EntrySize.
func randomBlob(rng *rand.Rand, tok Token) []byte {
	n := rng.Intn(20)
	blob := make([]byte, 0, n*EntrySize+EntrySize)
	for i := 0; i < n; i++ {
		salt := make([]byte, saltSize)
		rng.Read(salt)
		blob = append(blob, salt...)
		switch rng.Intn(5) {
		case 0:
			blob = append(blob, prf.Sum(tok, salt)[:WordSize]...)
		case 1:
			// A near miss: tok's MAC with one bit flipped.
			mac := prf.Sum(tok, salt)[:WordSize]
			bit := rng.Intn(8 * WordSize)
			mac[bit/8] ^= 1 << (bit % 8)
			blob = append(blob, mac...)
		case 2:
			other := make([]byte, rng.Intn(3)*32)
			rng.Read(other)
			blob = append(blob, prf.Sum(other, salt)[:WordSize]...)
		default:
			mac := make([]byte, WordSize)
			rng.Read(mac)
			blob = append(blob, mac...)
		}
	}
	if rng.Intn(8) == 0 {
		extra := make([]byte, 1+rng.Intn(EntrySize-1))
		rng.Read(extra)
		blob = append(blob, extra...)
	}
	return blob
}

// TestMatcherDifferential holds Matcher to referenceMatch under every
// compression kernel, on random tokens — empty, 32 bytes like TokenFor's, and
// longer than a SHA-256 block, which HMAC hashes first — and random blobs,
// including malformed lengths.
func TestMatcherDifferential(t *testing.T) {
	forEachKernel(func(kname string) {
		rng := rand.New(rand.NewSource(1))
		c := New([]byte("differential"))
		matches := 0
		for i := 0; i < 400; i++ {
			var tok Token
			switch i % 4 {
			case 0:
				tok = c.TokenFor(fmt.Sprintf("w%d", rng.Intn(50)))
			case 1:
				tok = make(Token, rng.Intn(64))
			case 2:
				tok = make(Token, 65+rng.Intn(100))
			default:
				tok = make(Token, 64)
			}
			if i%4 != 0 {
				rng.Read(tok)
			}
			m := NewMatcher(tok)
			for j := 0; j < 50; j++ {
				blob := randomBlob(rng, tok)
				want := referenceMatch(blob, tok)
				if got := m.Match(blob); got != want {
					t.Fatalf("%s kernel, token %x blob %x: Matcher.Match = %v, reference %v", kname, tok, blob, got, want)
				}
				if want {
					matches++
				}
			}
		}
		if matches < 1000 {
			t.Fatalf("%s kernel: only %d of 20000 blobs matched: the test no longer exercises matches", kname, matches)
		}
	})
}

// TestCompressDifferential holds each compression kernel to crypto/sha256:
// from SHA-256's initial state, over random messages padded by hand to one
// block (up to 55 bytes) or two, in one call and block by block, the state
// is the message's digest. A trailing partial block is ignored, as Match's
// callers never pass one.
func TestCompressDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	forEachKernel(func(kname string) {
		for i := 0; i < 2000; i++ {
			msg := make([]byte, rng.Intn(2*sha256.BlockSize-8))
			rng.Read(msg)
			padded := append(append([]byte(nil), msg...), 0x80)
			for len(padded)%sha256.BlockSize != sha256.BlockSize-8 {
				padded = append(padded, 0)
			}
			padded = binary.BigEndian.AppendUint64(padded, uint64(len(msg))*8)
			want := sha256.Sum256(msg)

			whole := iv
			tail := make([]byte, rng.Intn(sha256.BlockSize))
			rng.Read(tail)
			compress(&whole, append(padded, tail...))
			stepped := iv
			for off := 0; off < len(padded); off += sha256.BlockSize {
				compress(&stepped, padded[off:off+sha256.BlockSize])
			}
			for _, st := range []*[8]uint32{&whole, &stepped} {
				var got [sha256.Size]byte
				for j, w := range st {
					binary.BigEndian.PutUint32(got[4*j:], w)
				}
				if got != want {
					t.Fatalf("%s kernel, %d-byte message %x: state %x, sha256 %x", kname, len(msg), msg, got, want)
				}
			}
		}
	})
}

// TestMatchAllocs holds Match of a 12-word blob, the analytic workload's
// shape, to zero allocations under every compression kernel.
func TestMatchAllocs(t *testing.T) {
	c := New([]byte("allocs"))
	words := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}
	blob, err := c.EncryptWords(words)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(c.TokenFor("k"))
	forEachKernel(func(kname string) {
		if n := testing.AllocsPerRun(100, func() { m.Match(blob) }); n != 0 {
			t.Errorf("%s kernel: %v allocs per Match, want 0", kname, n)
		}
	})
}

// TestMatcherConcurrent shares one Matcher across goroutines; run with
// -race.
func TestMatcherConcurrent(t *testing.T) {
	c := New([]byte("key"))
	blob, err := c.EncryptText("alpha beta gamma")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(c.TokenFor("beta"))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if !m.Match(blob) {
					t.Error("shared Matcher missed a present word")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzSearchMatch requires Matcher.Match to agree with referenceMatch on
// arbitrary blob and token bytes under every compression kernel, and never
// to panic.
func FuzzSearchMatch(f *testing.F) {
	c := New([]byte("fuzz"))
	blob, err := c.EncryptText("the quick brown fox")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob, []byte(c.TokenFor("fox")))
	f.Add(blob[:EntrySize+3], []byte(c.TokenFor("fox")))
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, blob, token []byte) {
		want := referenceMatch(blob, token)
		forEachKernel(func(kname string) {
			if got := NewMatcher(token).Match(blob); got != want {
				t.Fatalf("%s kernel: Matcher.Match = %v, reference %v", kname, got, want)
			}
		})
	})
}

// BenchmarkMatch matches one token against tables shaped as the analytic
// workload's users table, 2200 rows, at 1, 4, 5, 12, 16, 17 and 33
// keywords a row: 12 is the workload's, 1, 4 and 5 bracket the group size
// below which SHA-NI's per-entry scan beats a 16-lane call (laneMin), and
// the others show what the 16-lane kernel pays for a masked remainder. ns/word and allocs/word are per stored word.
// Each size has an arm per pair of compression and match kernel this CPU
// supports (forEachKernel), and at 12 words "reference", the per-word HMAC
// Match had before Matcher.
func BenchmarkMatch(b *testing.B) {
	const rows = 2200
	c := New([]byte("bench"))
	tok := c.TokenFor("kw0042")
	for _, words := range []int{1, 4, 5, 12, 16, 17, 33} {
		rng := rand.New(rand.NewSource(1))
		blobs := make([][]byte, rows)
		for i := range blobs {
			ws := make([]string, words)
			for j := range ws {
				ws[j] = fmt.Sprintf("kw%04d", rng.Intn(400))
			}
			blob, err := c.EncryptWords(ws)
			if err != nil {
				b.Fatal(err)
			}
			blobs[i] = blob
		}
		// run times one statement's scan per iteration.
		run := func(b *testing.B, statement func()) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				statement()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			perWord := float64(b.N) * rows * float64(words)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perWord, "ns/word")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/perWord, "allocs/word")
		}
		forEachKernel(func(kname string) {
			b.Run(fmt.Sprintf("words=%d/%s", words, kname), func(b *testing.B) {
				run(b, func() {
					m := NewMatcher(tok)
					for _, blob := range blobs {
						m.Match(blob)
					}
				})
			})
		})
		if words == 12 {
			b.Run(fmt.Sprintf("words=%d/reference", words), func(b *testing.B) {
				run(b, func() {
					for _, blob := range blobs {
						referenceMatch(blob, tok)
					}
				})
			})
		}
	}
}
