// Package hgd samples from the hypergeometric distribution using
// deterministic pseudo-random coins. It is the core of the Boldyreva
// order-preserving encryption scheme (§3.1): at every recursion step OPE
// asks "of the M domain points mapped into this range, how many fall in the
// lower half?", which is exactly a hypergeometric draw.
//
// The paper ports Kachitvichyanukul & Schmeiser's 1988 Fortran routine
// (H2PEC, ACM TOMS Algorithm 668); this package is a Go port of the same
// algorithm: inverse-transform sampling (HIN) near the mode for small
// problems and the H2PEC rectangle/exponential-tail rejection sampler for
// large ones, with acceptance tests evaluated in log space via a Stirling
// approximation of ln(n!).
package hgd

import (
	"math"

	"repro/internal/crypto/prf"
)

// ln(1e25): scaling constant from the original Fortran, used by the
// inverse-transform branch to delay floating-point underflow.
const con = 57.56462733

// Sample returns the number of white balls obtained when drawing `draws`
// balls without replacement from an urn of `white` white and `black` black
// balls, using coins as the randomness source. The result is always within
// [max(0, draws-black), min(white, draws)].
func Sample(draws, white, black uint64, coins *prf.Stream) uint64 {
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

	ix := sampleCanonical(k, n1, n2, coins)

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

// sampleCanonical samples with n1 <= n2 and 2k <= n1+n2.
func sampleCanonical(k, n1, n2 float64, coins *prf.Stream) float64 {
	tn := n1 + n2
	m := math.Floor((k + 1) * (n1 + 1) / (tn + 2)) // mode
	minjx := math.Max(0, k-n2)
	maxjx := math.Min(n1, k)

	if minjx >= maxjx {
		return maxjx
	}
	if m-minjx < 10 {
		return sampleInverse(k, n1, n2, minjx, maxjx, coins)
	}
	return sampleH2PEC(k, n1, n2, m, minjx, maxjx, coins)
}

// sampleInverse is the HIN inverse-transform branch, used when the mode is
// close to the lower support bound.
func sampleInverse(k, n1, n2, minjx, maxjx float64, coins *prf.Stream) float64 {
	tn := n1 + n2
	var w float64
	if k < n2 {
		w = math.Exp(con + afc(n2) + afc(n1+n2-k) - afc(n2-k) - afc(tn))
	} else {
		// minjx = k-n2 > 0: P(X=k-n2) = C(n1,k-n2)/C(tn,k).
		w = math.Exp(con + afc(n1) + afc(k) + afc(tn-k) -
			afc(k-n2) - afc(n1+n2-k) - afc(tn))
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

// sampleH2PEC is the rectangle + exponential-tails rejection sampler.
func sampleH2PEC(k, n1, n2, m, minjx, maxjx float64, coins *prf.Stream) float64 {
	tn := n1 + n2
	s := math.Sqrt((tn - k) * k * n1 * n2 / ((tn - 1) * tn * tn))
	d := math.Trunc(1.5*s) + 0.5
	xl := m - d + 0.5
	xr := m + d + 0.5
	a := afc(m) + afc(n1-m) + afc(k-m) + afc(n2-k+m)
	kl := math.Exp(a - afc(xl) - afc(n1-xl) - afc(k-xl) - afc(n2-k+xl))
	kr := math.Exp(a - afc(xr-1) - afc(n1-xr+1) - afc(k-xr+1) - afc(n2-k+xr-1))
	lamdl := -math.Log(xl * (n2 - k + xl) / ((n1 - xl + 1) * (k - xl + 1)))
	lamdr := -math.Log((n1 - xr + 1) * (k - xr + 1) / (xr * (n2 - k + xr)))
	p1 := 2 * d
	p2 := p1 + kl/lamdl
	p3 := p2 + kr/lamdr

	mode := math.Max(minjx, math.Min(maxjx, m))
	if math.IsInf(p3, 0) || math.IsNaN(p3) {
		// Populations near 2^62 (the top levels of OPE's tree): float64
		// cannot resolve the differences of ln n! above, kl or kr
		// overflows, and no draw can be accepted. u is p3 scaled, so
		// it is ±Inf or NaN; a -Inf lands left of the support and is
		// skipped, and every other value either skips on ix or v, or
		// reaches the acceptance test with v = +Inf or NaN, whose
		// logarithm is never <= the right-hand side (finite or -Inf,
		// since a is finite). The loop below would burn all its
		// attempts and return the mode whatever the coins say, so
		// return it now: same value, no draws.
		return mode
	}

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
		if alv <= a-afc(ix)-afc(n1-ix)-afc(k-ix)-afc(n2-k+ix) {
			return ix
		}
	}
	// Rejection failed to converge: with p3 finite this takes a
	// population above 2^52 whose rounding error in a alone exceeds the
	// range of ln v. Return the mode.
	return mode
}

// small factorials for the exact branch of afc.
var lnFact = [...]float64{
	0,                  // ln 0!
	0,                  // ln 1!
	0.6931471805599453, // ln 2!
	1.791759469228055,
	3.1780538303479458,
	4.787491742782046,
	6.579251212010101,
	8.525161361065415, // ln 7!
}

// halfLn2Pi is Stirling's 0.5·ln 2π, computed once with the same calls afc
// used to make per evaluation (Go does not fold math.Log), so afc returns
// the same bits.
var halfLn2Pi = 0.5 * math.Log(2*math.Pi)

// afc approximates ln(i!). Exact for i <= 7, Stirling with correction terms
// beyond, matching the AFC function of the original Fortran.
func afc(i float64) float64 {
	if i < 0 {
		// Out-of-support probe from a rejection candidate; make the
		// acceptance test fail by pretending the weight is -inf.
		return math.Inf(1)
	}
	if i <= 7 {
		return lnFact[int(i)]
	}
	return halfLn2Pi + (i+0.5)*math.Log(i) - i +
		1/(12*i) - 1/(360*i*i*i)
}
