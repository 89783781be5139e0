package hgd

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/crypto/prf"
)

func coins(seed byte) *prf.Stream {
	return prf.NewStream([]byte("hgd-test"), []byte{seed})
}

func TestSupportBounds(t *testing.T) {
	f := func(dRaw, wRaw, bRaw uint64, seed byte) bool {
		white := wRaw % 10000
		black := bRaw % 10000
		if white+black == 0 {
			return true
		}
		draws := dRaw % (white + black + 1)
		got := Sample(draws, white, black, coins(seed))
		lo := uint64(0)
		if draws > black {
			lo = draws - black
		}
		hi := white
		if draws < hi {
			hi = draws
		}
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDegenerateCases(t *testing.T) {
	cases := []struct {
		draws, white, black, want uint64
	}{
		{0, 10, 10, 0},   // no draws
		{5, 0, 10, 0},    // no white balls
		{5, 10, 0, 5},    // no black balls
		{20, 10, 10, 10}, // draw everything
	}
	for _, c := range cases {
		if got := Sample(c.draws, c.white, c.black, coins(1)); got != c.want {
			t.Errorf("Sample(%d,%d,%d) = %d, want %d", c.draws, c.white, c.black, got, c.want)
		}
	}
}

func TestDeterministicWithSameCoins(t *testing.T) {
	a := Sample(500, 1000, 1000, coins(7))
	b := Sample(500, 1000, 1000, coins(7))
	if a != b {
		t.Fatalf("same coins gave %d and %d", a, b)
	}
}

func TestVariesWithCoins(t *testing.T) {
	seen := map[uint64]bool{}
	for s := byte(0); s < 32; s++ {
		seen[Sample(500, 1000, 1000, coins(s))] = true
	}
	if len(seen) < 5 {
		t.Fatalf("only %d distinct samples over 32 coin streams", len(seen))
	}
}

func TestMeanSmall(t *testing.T) {
	// E[X] = draws * white / (white+black). HIN branch.
	const draws, white, black = 10, 20, 80
	sum := 0.0
	const n = 3000
	for i := 0; i < n; i++ {
		sum += float64(Sample(draws, white, black, coins(byte(i))))
	}
	// reuse more coin variety than 256 seeds
	mean := sum / n
	want := float64(draws) * white / (white + black) // 2.0
	if mean < want*0.85 || mean > want*1.15 {
		t.Fatalf("mean = %v, want ~%v", mean, want)
	}
}

func TestMeanLarge(t *testing.T) {
	// Large populations exercise the H2PEC rejection branch.
	const draws, white, black = 1 << 20, 1 << 20, 1 << 20
	sum := 0.0
	const n = 200
	for i := 0; i < n; i++ {
		s := prf.NewStream([]byte("large"), []byte{byte(i), byte(i >> 8)})
		sum += float64(Sample(draws, white, black, s))
	}
	mean := sum / n
	want := float64(draws) / 2
	if mean < want*0.99 || mean > want*1.01 {
		t.Fatalf("mean = %v, want ~%v", mean, want)
	}
}

func TestHugePopulation(t *testing.T) {
	// OPE's first recursion step: 2^63 draws from 2^32 white and
	// 2^64-2^32 black balls. Must terminate and stay in support.
	white := uint64(1) << 32
	black := ^uint64(0) - white
	draws := uint64(1) << 63
	got := Sample(draws, white, black, coins(3))
	if got > white {
		t.Fatalf("sample %d exceeds white count", got)
	}
	// The expected value is ~2^31; allow a generous window but
	// catch grossly broken sampling.
	if got < 1<<28 || got > 1<<34 {
		t.Fatalf("sample %d wildly far from expectation 2^31", got)
	}
}

func TestVarianceReasonable(t *testing.T) {
	// Hypergeometric variance = k*(w/(w+b))*(b/(w+b))*((w+b-k)/(w+b-1)).
	const draws, white, black = 100, 500, 500
	var vals []float64
	for i := 0; i < 500; i++ {
		s := prf.NewStream([]byte("var"), []byte{byte(i), byte(i >> 8)})
		vals = append(vals, float64(Sample(draws, white, black, s)))
	}
	mean := 0.0
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	varSum := 0.0
	for _, v := range vals {
		varSum += (v - mean) * (v - mean)
	}
	variance := varSum / float64(len(vals))
	want := 100.0 * 0.5 * 0.5 * (900.0 / 999.0) // ~22.5
	if variance < want*0.6 || variance > want*1.5 {
		t.Fatalf("variance = %v, want ~%v", variance, want)
	}
}

func TestDrawsExceedPopulationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic when draws exceed population")
		}
	}()
	Sample(21, 10, 10, coins(0))
}

// The differential tests below compare Sample with the sampler exactly as it
// stood at the parent of PR 16 (commit bfea0c0), kept verbatim from here to
// the end of the file under oracle* names: 100 000 attempts at nodes that
// cannot accept, and 0.5·ln 2π recomputed on every afc call. Stored OPE
// ciphertexts are a function of these values.

// xorshift is the tests' fixed source of sample shapes.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

// shape draws (draws, white, black) with a population of about popBits
// bits; every other shape asks for half the population, as OPE does.
func (x *xorshift) shape(popBits uint) (draws, white, black uint64) {
	pop := x.next()>>(64-popBits) | 1<<(popBits-1)
	white = x.next() % (pop + 1)
	if x.next()%4 == 0 { // OPE's domains are far smaller than its ranges
		white >>= x.next() % uint64(popBits)
	}
	black = pop - white
	if x.next()%2 == 0 {
		return pop/2 + pop%2, white, black
	}
	return x.next() % (pop + 1), white, black
}

func agree(t *testing.T, draws, white, black uint64, seed uint64) uint64 {
	t.Helper()
	ctx := binary.BigEndian.AppendUint64(nil, seed)
	got := Sample(draws, white, black, prf.NewStream([]byte("diff"), ctx))
	want := oracleSample(draws, white, black, prf.NewStream([]byte("diff"), ctx))
	if got != want {
		t.Fatalf("Sample(%d, %d, %d) seed %d = %d, parent's sampler gives %d", draws, white, black, seed, got, want)
	}
	return got
}

func TestDifferentialRandomShapes(t *testing.T) {
	x := xorshift(0x2545f4914f6cdd1d)
	// Populations up to 2^55: the parent converges (or gives up within
	// microseconds), so 10^5 shapes are cheap.
	for i := 0; i < 100000; i++ {
		draws, white, black := x.shape(uint(2 + x.next()%54))
		agree(t, draws, white, black, uint64(i))
	}
	// 2^56 and up: a third of the shapes make the parent spin for its
	// full 100 000 attempts, about 80 ms each.
	n := 256
	if testing.Short() {
		n = 32
	}
	for i := 0; i < n; i++ {
		draws, white, black := x.shape(uint(56 + x.next()%9))
		agree(t, draws, white, black, uint64(i))
	}
}

// TestDifferentialTopOfTree walks the top of OPE's tree, node for node as
// ope.Cipher.split does, for the proxy's (40,63) and the paper's (32,64):
// the nodes where the parent's loop cannot accept.
func TestDifferentialTopOfTree(t *testing.T) {
	x := xorshift(0x9e3779b97f4a7c15)
	for _, bits := range [][2]uint{{40, 63}, {32, 64}} {
		for path := uint64(0); path < 8; path++ {
			m := uint64(1) << bits[0]             // domain points in the node
			width := ^uint64(0) >> (64 - bits[1]) // range size - 1
			for level := uint64(0); width >= 1<<54 && m > 1; level++ {
				half := uint64(1) << 63
				if width != ^uint64(0) {
					half = (width+1)/2 + (width+1)%2
				}
				drawn := agree(t, half, m, width-m+1, path<<8|level)
				// Descend towards the side that keeps domain points.
				if left := x.next()%2 == 0; (left && drawn > 0) || drawn == m {
					m, width = drawn, half-1
				} else {
					m, width = m-drawn, width-half
				}
			}
		}
	}
}

func TestDifferentialAfc(t *testing.T) {
	if halfLn2Pi != 0.5*math.Log(2*math.Pi) {
		t.Fatal("halfLn2Pi differs from the expression it replaces")
	}
	x := xorshift(88172645463325252)
	for i := 0; i < 100000; i++ {
		v := float64(x.next() >> (x.next() % 64))
		if i%2 == 0 {
			v += 0.5 // xl, xr are half-integers
		}
		if got, want := afc(v), oracleAfc(v); got != want {
			t.Fatalf("afc(%v) = %v, parent's gives %v", v, got, want)
		}
	}
}

func oracleSample(draws, white, black uint64, coins *prf.Stream) uint64 {
	// Population may be up to 2^64 (OPE's root node), which overflows
	// uint64; white+black < white detects that case, where any draws
	// value is valid.
	if pop := white + black; pop >= white && draws > pop {
		panic("hgd: draws exceed population")
	}
	if draws == 0 || white == 0 {
		return 0
	}
	if black == 0 {
		return draws
	}

	// Symmetry reductions from the Fortran: sample with the smaller color
	// count and the smaller draw count, then map back.
	tn := float64(white) + float64(black)
	var n1, n2 float64
	if white <= black {
		n1, n2 = float64(white), float64(black)
	} else {
		n1, n2 = float64(black), float64(white)
	}
	var k float64
	if 2*float64(draws) <= tn {
		k = float64(draws)
	} else {
		k = tn - float64(draws)
	}

	ix := oracleSampleCanonical(k, n1, n2, coins)

	// Undo the symmetry reductions.
	if 2*float64(draws) > tn {
		if white > black {
			ix = float64(draws) - float64(black) + ix
		} else {
			ix = float64(white) - ix
		}
	} else if white > black {
		ix = float64(draws) - ix
	}

	// Clamp to the mathematically valid support; floating-point error in
	// the symmetry adjustments must never escape it.
	lo := float64(0)
	if draws > black {
		lo = float64(draws - black)
	}
	hi := math.Min(float64(white), float64(draws))
	if ix < lo {
		ix = lo
	}
	if ix > hi {
		ix = hi
	}
	return uint64(ix)
}

// oracleSampleCanonical samples with n1 <= n2 and 2k <= n1+n2.
func oracleSampleCanonical(k, n1, n2 float64, coins *prf.Stream) float64 {
	tn := n1 + n2
	m := math.Floor((k + 1) * (n1 + 1) / (tn + 2)) // mode
	minjx := math.Max(0, k-n2)
	maxjx := math.Min(n1, k)

	if minjx >= maxjx {
		return maxjx
	}
	if m-minjx < 10 {
		return oracleSampleInverse(k, n1, n2, minjx, maxjx, coins)
	}
	return oracleSampleH2PEC(k, n1, n2, m, minjx, maxjx, coins)
}

// oracleSampleInverse is the HIN inverse-transform branch, used when the mode is
// close to the lower support bound.
func oracleSampleInverse(k, n1, n2, minjx, maxjx float64, coins *prf.Stream) float64 {
	tn := n1 + n2
	var w float64
	if k < n2 {
		w = math.Exp(con + oracleAfc(n2) + oracleAfc(n1+n2-k) - oracleAfc(n2-k) - oracleAfc(tn))
	} else {
		// minjx = k-n2 > 0: P(X=k-n2) = C(n1,k-n2)/C(tn,k).
		w = math.Exp(con + oracleAfc(n1) + oracleAfc(k) + oracleAfc(tn-k) -
			oracleAfc(k-n2) - oracleAfc(n1+n2-k) - oracleAfc(tn))
	}
	const scale = 1e25
	for attempt := 0; ; attempt++ {
		if attempt > 10000 {
			// Numerically degenerate; fall back to the mode region.
			return math.Max(minjx, math.Min(maxjx, math.Floor((k+1)*(n1+1)/(tn+2))))
		}
		p := w
		ix := minjx
		u := coins.Float64() * scale
		overflow := false
		for u > p {
			u -= p
			p = p * (n1 - ix) * (k - ix) / ((ix + 1) * (n2 - k + 1 + ix))
			ix++
			if ix > maxjx || p <= 0 || math.IsNaN(p) {
				overflow = true
				break
			}
		}
		if !overflow {
			return ix
		}
	}
}

// oracleSampleH2PEC is the rectangle + exponential-tails rejection sampler.
func oracleSampleH2PEC(k, n1, n2, m, minjx, maxjx float64, coins *prf.Stream) float64 {
	tn := n1 + n2
	s := math.Sqrt((tn - k) * k * n1 * n2 / ((tn - 1) * tn * tn))
	d := math.Trunc(1.5*s) + 0.5
	xl := m - d + 0.5
	xr := m + d + 0.5
	a := oracleAfc(m) + oracleAfc(n1-m) + oracleAfc(k-m) + oracleAfc(n2-k+m)
	kl := math.Exp(a - oracleAfc(xl) - oracleAfc(n1-xl) - oracleAfc(k-xl) - oracleAfc(n2-k+xl))
	kr := math.Exp(a - oracleAfc(xr-1) - oracleAfc(n1-xr+1) - oracleAfc(k-xr+1) - oracleAfc(n2-k+xr-1))
	lamdl := -math.Log(xl * (n2 - k + xl) / ((n1 - xl + 1) * (k - xl + 1)))
	lamdr := -math.Log((n1 - xr + 1) * (k - xr + 1) / (xr * (n2 - k + xr)))
	p1 := 2 * d
	p2 := p1 + kl/lamdl
	p3 := p2 + kr/lamdr

	for attempt := 0; attempt < 100000; attempt++ {
		u := coins.Float64() * p3
		v := coins.Float64()
		var ix float64
		switch {
		case u <= p1: // rectangular region around the mode
			ix = math.Floor(xl + u)
		case u <= p2: // left exponential tail
			ix = math.Floor(xl + math.Log(v)/lamdl)
			if ix < minjx {
				continue
			}
			v = v * (u - p1) * lamdl
		default: // right exponential tail
			ix = math.Floor(xr - math.Log(v)/lamdr)
			if ix > maxjx {
				continue
			}
			v = v * (u - p2) * lamdr
		}
		if ix < minjx || ix > maxjx || v <= 0 {
			continue
		}
		// Log-space acceptance test: accept iff v <= f(ix)/f(mode).
		alv := math.Log(v)
		if alv <= a-oracleAfc(ix)-oracleAfc(n1-ix)-oracleAfc(k-ix)-oracleAfc(n2-k+ix) {
			return ix
		}
	}
	// Rejection failed to converge (possible only under extreme
	// floating-point degeneracy); return the mode.
	return math.Max(minjx, math.Min(maxjx, m))
}

// oracleAfc approximates ln(i!). Exact for i <= 7, Stirling with correction terms
// beyond, matching the AFC function of the original Fortran.
func oracleAfc(i float64) float64 {
	if i < 0 {
		// Out-of-support probe from a rejection candidate; make the
		// acceptance test fail by pretending the weight is -inf.
		return math.Inf(1)
	}
	if i <= 7 {
		return lnFact[int(i)]
	}
	return 0.5*math.Log(2*math.Pi) + (i+0.5)*math.Log(i) - i +
		1/(12*i) - 1/(360*i*i*i)
}
