package sqlparser

import (
	"strings"
	"testing"
)

// The seed corpora are under testdata/fuzz: the statement texts of the
// TPC-C, forum and benchmark workloads for FuzzParse, and strings holding
// the bytes that frame a response line for FuzzRowEscape.

// FuzzParse checks that no input makes the parser panic (the fuzz engine
// fails the run on one), and that a statement it accepts renders as text it
// accepts again, with the same rendering.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, sql string) {
		st, err := Parse(sql)
		if err != nil {
			return
		}
		text := st.String()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("%q parses, its rendering %q does not: %v", sql, text, err)
		}
		if got := again.String(); got != text {
			t.Fatalf("%q renders as %q, which renders as %q", sql, text, got)
		}
	})
}

// FuzzRowEscape checks the two properties cryptdb-server's response lines
// rest on: an escaped string holds no LF, CR or TAB, and a client gets the
// string back by lexing it as a string literal.
func FuzzRowEscape(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		esc := EscapeString(s)
		if strings.ContainsAny(esc, "\n\r\t") {
			t.Fatalf("EscapeString(%q) = %q holds a framing byte", s, esc)
		}
		tok, err := NewLexer("'" + strings.ReplaceAll(esc, "'", "''") + "'").Next()
		if err != nil || tok.Kind != TokString || tok.Text != s {
			t.Fatalf("EscapeString(%q) = %q lexes back to %q (kind %v, err %v)", s, esc, tok.Text, tok.Kind, err)
		}
	})
}
