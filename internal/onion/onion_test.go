package onion

import (
	"testing"

	"repro/internal/sqlparser"
)

func TestStackFor(t *testing.T) {
	cases := []struct {
		o    Onion
		typ  sqlparser.ColType
		want []Layer // nil means "not applicable"
	}{
		{Eq, sqlparser.TypeInt, []Layer{RND, DET}},
		{Eq, sqlparser.TypeText, []Layer{RND, DET}},
		{JAdj, sqlparser.TypeInt, []Layer{RND, JOIN}},
		{JAdj, sqlparser.TypeBlob, nil},
		{Ord, sqlparser.TypeInt, []Layer{RND, OPE}},
		{Ord, sqlparser.TypeBlob, nil},
		{Add, sqlparser.TypeInt, []Layer{HOM}},
		{Add, sqlparser.TypeText, nil}, // Add makes no sense for strings (§3.2)
		{Search, sqlparser.TypeText, []Layer{SEARCH}},
		{Search, sqlparser.TypeInt, nil}, // Search makes no sense for ints
	}
	for _, c := range cases {
		got := StackFor(c.o, c.typ)
		if len(got) != len(c.want) {
			t.Errorf("StackFor(%s, %s) = %v, want %v", c.o, c.typ, got, c.want)
			continue
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("StackFor(%s, %s) = %v, want %v", c.o, c.typ, got, c.want)
			}
		}
	}
}

func TestOnionsPerType(t *testing.T) {
	if got := len(Onions(sqlparser.TypeInt)); got != 4 { // Eq JAdj Ord Add
		t.Errorf("int onions = %d, want 4", got)
	}
	if got := len(Onions(sqlparser.TypeText)); got != 4 { // Eq JAdj Ord Search
		t.Errorf("text onions = %d, want 4", got)
	}
	if got := len(Onions(sqlparser.TypeBlob)); got != 1 { // Eq only
		t.Errorf("blob onions = %d, want 1", got)
	}
}

func TestSecurityRankOrdering(t *testing.T) {
	// The MinEnc ordering of §8.3: RND=HOM > SEARCH > DET > JOIN > OPE > PLAIN.
	order := []Layer{RND, SEARCH, DET, JOIN, OPE, PLAIN}
	for i := 1; i < len(order); i++ {
		if order[i-1].SecurityRank() <= order[i].SecurityRank() {
			t.Errorf("%s rank %d should exceed %s rank %d",
				order[i-1], order[i-1].SecurityRank(), order[i], order[i].SecurityRank())
		}
	}
	if RND.SecurityRank() != HOM.SecurityRank() {
		t.Error("RND and HOM should rank equal (both leak nothing)")
	}
}

func TestStateTransitions(t *testing.T) {
	st := NewState([]Layer{RND, DET})
	if st.Current() != RND {
		t.Fatalf("initial layer %s", st.Current())
	}
	if st.AtOrBelow(DET) {
		t.Fatal("fresh state claims DET already reached")
	}
	if !st.AtOrBelow(RND) {
		t.Fatal("fresh state should be at RND")
	}
	layers, err := st.LayersAbove(DET)
	if err != nil {
		t.Fatal(err)
	}
	if len(layers) != 1 || layers[0] != RND {
		t.Fatalf("layers above DET = %v", layers)
	}
	st.Descend()
	if st.Current() != DET || !st.AtOrBelow(DET) || !st.AtOrBelow(RND) {
		t.Fatalf("after descend: current %s", st.Current())
	}
	// Descending past the bottom stays at the bottom.
	st.Descend()
	if st.Current() != DET {
		t.Fatalf("descended past innermost: %s", st.Current())
	}
	if _, err := st.LayersAbove(RND); err == nil {
		t.Fatal("LayersAbove should fail for layers already peeled")
	}
}

func TestRequirements(t *testing.T) {
	cases := []struct {
		class Class
		o     Onion
		l     Layer
	}{
		{ClassEquality, Eq, DET},
		{ClassJoin, JAdj, JOIN},
		{ClassOrder, Ord, OPE},
		{ClassRangeJoin, Ord, OPEJOIN},
		{ClassSum, Add, HOM},
		{ClassIncrement, Add, HOM},
		{ClassSearch, Search, SEARCH},
	}
	for _, c := range cases {
		o, l, ok := c.class.Requirement()
		if !ok || o != c.o || l != c.l {
			t.Errorf("%v requirement = (%s, %s, %v), want (%s, %s)", c.class, o, l, ok, c.o, c.l)
		}
	}
	if _, _, ok := ClassNone.Requirement(); ok {
		t.Error("ClassNone should have no requirement")
	}
	if _, _, ok := ClassPlaintext.Requirement(); ok {
		t.Error("ClassPlaintext should have no requirement")
	}
}

func TestLayerFromString(t *testing.T) {
	if l, err := LayerFromString("DET"); err != nil || l != DET {
		t.Fatalf("got %v, %v", l, err)
	}
	if _, err := LayerFromString("BOGUS"); err == nil {
		t.Fatal("want error for unknown layer")
	}
}

// TestDeferredIsOrthogonalToLayer: the deferred bit says whether the onion
// holds ciphertexts; the layer pointer says at which layer they are (or will
// be, once materialised). Neither moves the other, and a state built the way
// every pre-existing one was — without the bit — is a present onion.
func TestDeferredIsOrthogonalToLayer(t *testing.T) {
	st := NewState(StackFor(Ord, sqlparser.TypeInt))
	if st.Deferred {
		t.Fatal("a new state must be a present onion")
	}
	st.Deferred = true
	if st.Current() != RND || st.AtOrBelow(OPE) {
		t.Fatalf("deferred onion reports layer %s", st.Current())
	}
	if layers, err := st.LayersAbove(OPE); err != nil || len(layers) != 1 || layers[0] != RND {
		t.Fatalf("LayersAbove(OPE) on a deferred onion = %v, %v", layers, err)
	}
	st.Descend()
	if !st.Deferred || st.Current() != OPE {
		t.Fatalf("Descend changed the bit: %+v", st)
	}
}
