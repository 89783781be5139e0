// Package onion defines CryptDB's onion-of-encryption model (§3.2,
// Figure 2): each data item is stored in one or more onions — Eq, Ord, Add
// and Search — whose layers provide decreasing security but increasing
// server-side functionality. The proxy peels layers at run time in response
// to the classes of computation queries require, never below a
// developer-specified minimum.
package onion

import (
	"fmt"

	"repro/internal/sqlparser"
)

// Onion identifies one of the ciphertext onions a column may carry.
type Onion string

// The four onions of Figure 2. JAdj carries the JOIN-ADJ component of the
// merged DET+JOIN layer; storing it beside Eq (rather than concatenated
// inside it) preserves the construction JOIN(v) = JOIN-ADJ(v) ‖ DET(v)
// while letting the DBMS index each component (see DESIGN.md §2).
const (
	Eq     Onion = "Eq"
	JAdj   Onion = "JAdj"
	Ord    Onion = "Ord"
	Add    Onion = "Add"
	Search Onion = "Search"
)

// Layer is one encryption layer within an onion.
type Layer string

// Layers, strongest to weakest.
const (
	RND     Layer = "RND"
	HOM     Layer = "HOM"
	SEARCH  Layer = "SEARCH"
	DET     Layer = "DET"
	JOIN    Layer = "JOIN"
	OPE     Layer = "OPE"
	OPEJOIN Layer = "OPEJOIN"
	PLAIN   Layer = "PLAIN"
)

// SecurityRank orders layers for the MinEnc analysis of §8.3: RND and HOM
// are strongest, then SEARCH, then DET/JOIN, then OPE; PLAIN is no
// protection at all.
func (l Layer) SecurityRank() int {
	switch l {
	case RND, HOM:
		return 5
	case SEARCH:
		return 4
	case DET:
		return 3
	case JOIN:
		return 2
	case OPE, OPEJOIN:
		return 1
	case PLAIN:
		return 0
	}
	return -1
}

// LayerFromString parses a layer name (for MINENC annotations).
func LayerFromString(s string) (Layer, error) {
	switch Layer(s) {
	case RND, HOM, SEARCH, DET, JOIN, OPE, OPEJOIN, PLAIN:
		return Layer(s), nil
	}
	return "", fmt.Errorf("onion: unknown layer %q", s)
}

// StackFor returns the layer stack (outermost first) of an onion for a
// column type, or nil if the onion does not apply to the type — e.g. the
// Search onion makes no sense for integers and Add makes no sense for
// strings (§3.2).
func StackFor(o Onion, t sqlparser.ColType) []Layer {
	switch o {
	case Eq:
		return []Layer{RND, DET}
	case JAdj:
		if t == sqlparser.TypeBlob {
			return nil
		}
		return []Layer{RND, JOIN}
	case Ord:
		if t == sqlparser.TypeBlob {
			return nil
		}
		return []Layer{RND, OPE}
	case Add:
		if t != sqlparser.TypeInt {
			return nil
		}
		return []Layer{HOM}
	case Search:
		if t != sqlparser.TypeText {
			return nil
		}
		return []Layer{SEARCH}
	}
	return nil
}

// Onions lists the onions applicable to a column type, in a fixed order.
func Onions(t sqlparser.ColType) []Onion {
	var out []Onion
	for _, o := range []Onion{Eq, JAdj, Ord, Add, Search} {
		if StackFor(o, t) != nil {
			out = append(out, o)
		}
	}
	return out
}

// Class is a class of computation a query performs on a column (§2.1).
type Class int

// Computation classes and the onion layer each one requires.
const (
	ClassNone Class = iota // projection only
	ClassEquality
	ClassJoin
	ClassOrder
	ClassRangeJoin
	ClassSum
	ClassIncrement
	ClassSearch
	ClassPlaintext // computation CryptDB cannot run on ciphertext
)

func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassEquality:
		return "equality"
	case ClassJoin:
		return "join"
	case ClassOrder:
		return "order"
	case ClassRangeJoin:
		return "range-join"
	case ClassSum:
		return "sum"
	case ClassIncrement:
		return "increment"
	case ClassSearch:
		return "search"
	case ClassPlaintext:
		return "needs-plaintext"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Requirement returns the (onion, layer) a computation class requires.
func (c Class) Requirement() (Onion, Layer, bool) {
	switch c {
	case ClassEquality:
		return Eq, DET, true
	case ClassJoin:
		return JAdj, JOIN, true
	case ClassOrder:
		return Ord, OPE, true
	case ClassRangeJoin:
		return Ord, OPEJOIN, true
	case ClassSum, ClassIncrement:
		return Add, HOM, true
	case ClassSearch:
		return Search, SEARCH, true
	}
	return "", "", false
}

// State tracks the current outermost layer of one onion of one column.
type State struct {
	Stack []Layer // outermost .. innermost
	Cur   int     // index into Stack of the current outermost layer
	// Deferred marks an onion whose server column is declared but holds no
	// ciphertext yet: writes skip it, and the first query whose requirement
	// names it fills the whole column from the Eq onion, at layer Cur, before
	// anything is stripped (§3.5.2 read the other way round: an onion nobody
	// has needed is not stored). The server learns nothing from a deferred
	// onion, not even what RND would show. The zero value is a present onion.
	Deferred bool
}

// NewState builds the initial (fully wrapped) state for an onion stack.
func NewState(stack []Layer) *State {
	return &State{Stack: stack}
}

// Current returns the current outermost layer.
func (s *State) Current() Layer { return s.Stack[s.Cur] }

// AtOrBelow reports whether the onion is already peeled to l or deeper:
// l appears at or above the current layer pointer.
func (s *State) AtOrBelow(l Layer) bool {
	for i := 0; i <= s.Cur && i < len(s.Stack); i++ {
		if s.Stack[i] == l {
			return true
		}
	}
	return false
}

// LayersAbove returns the layers that must be stripped (outermost first) to
// reach layer l, or an error if l is not in the remaining stack.
func (s *State) LayersAbove(l Layer) ([]Layer, error) {
	for i := s.Cur; i < len(s.Stack); i++ {
		if s.Stack[i] == l {
			return s.Stack[s.Cur:i], nil
		}
	}
	return nil, fmt.Errorf("onion: layer %s not reachable from %s", l, s.Current())
}

// Descend moves the current layer pointer down by one.
func (s *State) Descend() {
	if s.Cur < len(s.Stack)-1 {
		s.Cur++
	}
}
