//go:build linux

package search

import (
	"fmt"
	"math/rand"
	"slices"
	"syscall"
	"testing"

	"repro/internal/crypto/prf"
)

// TestMatchStaysInsideBlob places each blob flush against a page mapped
// PROT_NONE and matches it under every kernel pair: a read past the blob's
// last byte, such as a gather lane the mask should have turned off, faults
// and kills the test. Blobs run from 1 to 33 entries, so the last group of
// 16 lanes holds 1 to 16 of them, plus a length that is not a multiple of
// EntrySize. The last entry carries the token's MAC with one bit flipped in
// each of its four words in turn, which must not match, and then the MAC
// itself, the only match, in the last and possibly masked group.
func TestMatchStaysInsideBlob(t *testing.T) {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	// guarded copies b to the end of the readable page.
	guarded := func(b []byte) []byte {
		g := mem[page-len(b) : page : page]
		copy(g, b)
		return g
	}

	rng := rand.New(rand.NewSource(3))
	tok := New([]byte("guard")).TokenFor("needle")
	m := NewMatcher(tok)
	salt := make([]byte, saltSize)
	mac := func(flip int) []byte {
		rng.Read(salt)
		e := append(append([]byte(nil), salt...), prf.Sum(tok, salt)[:WordSize]...)
		if flip >= 0 {
			e[saltSize+4*flip+rng.Intn(4)] ^= 1 << rng.Intn(8)
		}
		return e
	}
	type probe struct {
		name string
		blob []byte
		want bool
	}
	var probes []probe
	for n := 1; n <= 33; n++ {
		others := make([]byte, (n-1)*EntrySize)
		rng.Read(others)
		for w := 0; w < 4; w++ {
			probes = append(probes, probe{fmt.Sprintf("%d entries, near miss in word %d", n, w), slices.Concat(others, mac(w)), false})
		}
		probes = append(probes, probe{fmt.Sprintf("%d entries, match last", n), slices.Concat(others, mac(-1)), true})
	}
	probes = append(probes, probe{"malformed length", slices.Concat(mac(-1), mac(-1)[:EntrySize-5]), false})

	forEachKernel(func(kname string) {
		for _, p := range probes {
			if got := m.Match(guarded(p.blob)); got != p.want {
				t.Errorf("%s kernel, %s: Match = %v, want %v", kname, p.name, got, p.want)
			}
		}
	})
}
