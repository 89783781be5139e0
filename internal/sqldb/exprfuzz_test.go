package sqldb

import (
	"bytes"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/sqlparser"
)

// FuzzExprEval holds exprCompiler, the one expression evaluator, to the
// reference AST walker (evalCtx.eval, interp_test.go). The input decodes
// into a depth-bounded expression tree over every node type the compiler
// lowers; each tree runs on one row twice: through a table scope, as
// SELECT and the write path run it, and through EvalExpr's lookup mode, as
// the proxy runs it. Both must return the reference's value (kind and
// payload) and error text. A tree lowering rejects (an aggregate, an
// unknown function, any call in lookup mode) is counted, not compared:
// TestCompileResolveErrors and TestEvalConstAndExpr pin those errors.
func FuzzExprEval(f *testing.F) {
	db := New()
	db.RegisterUDF("f", fuzzUDF)
	tbl := newTable("t", []Column{{Name: "i"}, {Name: "s"}, {Name: "b"}, {Name: "n"}}, memPager())
	row := []Value{Int(-7), Text("12"), Blob([]byte("x_")), Null()}
	params := []Value{Int(3), Text("abc")} // Param 2 is missing
	sc := &scope{}
	sc.addTable("", tbl)
	lookup := func(table, col string) (Value, error) {
		_, ci, err := sc.resolve(table, col)
		if err != nil {
			return Value{}, err
		}
		return row[ci], nil
	}

	var compared, rejected atomic.Int64
	f.Cleanup(func() {
		if n := compared.Load() + rejected.Load(); n > 0 {
			f.Logf("%d evaluations compared, %d trees rejected at lowering", compared.Load(), rejected.Load())
		}
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &exprDecoder{data: data}
		e := d.expr(4)

		if ce, err := (&exprCompiler{db: db, sc: sc}).compile(e); err != nil {
			rejected.Add(1)
		} else {
			got, gotErr := ce(&execEnv{tup: tuple{row}, params: params})
			want, wantErr := (&evalCtx{db: db, scope: sc, tup: tuple{row}, params: params}).eval(e)
			compareEval(t, "table scope", e, got, gotErr, want, wantErr)
			compared.Add(1)
		}

		if _, err := (&exprCompiler{}).compile(e); err != nil {
			rejected.Add(1)
			return
		}
		got, gotErr := EvalExpr(e, lookup, params)
		want, wantErr := (&evalCtx{lookup: lookup, params: params}).eval(e)
		compareEval(t, "lookup", e, got, gotErr, want, wantErr)
		compared.Add(1)
	})
}

// fuzzUDF is FuzzExprEval's scalar UDF: the sum of its arguments as
// integers, NULL with none, and AsInt's error on the first that does not
// coerce.
func fuzzUDF(args []Value) (Value, error) {
	if len(args) == 0 {
		return Null(), nil
	}
	var sum int64
	for _, a := range args {
		n, err := a.AsInt()
		if err != nil {
			return Value{}, err
		}
		sum += n
	}
	return Int(sum), nil
}

func compareEval(t *testing.T, mode string, e sqlparser.Expr, got Value, gotErr error, want Value, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: %s: err = %v, reference %v", mode, e, gotErr, wantErr)
	}
	if gotErr == nil && (got.Kind != want.Kind || got.I != want.I || got.S != want.S || !bytes.Equal(got.B, want.B)) {
		t.Fatalf("%s: %s = %#v, reference %#v", mode, e, got, want)
	}
}

// exprDecoder turns fuzz bytes into an expression tree; an exhausted input
// reads as zero bytes, which decode to leaves.
type exprDecoder struct{ data []byte }

func (d *exprDecoder) next() byte {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

var fuzzLeaves = []sqlparser.Expr{
	&sqlparser.NullLit{},
	&sqlparser.IntLit{V: 0},
	&sqlparser.IntLit{V: math.MinInt64},
	&sqlparser.StrLit{V: "12"},
	&sqlparser.StrLit{V: "abc"},
	&sqlparser.StrLit{V: ""},
	&sqlparser.BytesLit{V: []byte("a%")},
	&sqlparser.BoolLit{V: true},
	&sqlparser.BoolLit{V: false},
	&sqlparser.Param{Index: 0},
	&sqlparser.Param{Index: 1},
	&sqlparser.Param{Index: 2},
	&sqlparser.ColRef{Column: "i"},
	&sqlparser.ColRef{Column: "s"},
	&sqlparser.ColRef{Table: "t", Column: "b"},
	&sqlparser.ColRef{Column: "n"},
}

var fuzzBinaryOps = []string{"AND", "OR", "=", "!=", "<", "<=", ">", ">=", "||", "+", "-", "*", "/", "%", "&", "|", "^"}

// expr decodes one node: the low nibble of its first byte picks the node
// type, bit 4 negates IN, LIKE, BETWEEN and IS NULL, and the following
// bytes are its operands. At depth 0 every node is a leaf.
func (d *exprDecoder) expr(depth int) sqlparser.Expr {
	b := d.next()
	if depth == 0 {
		return fuzzLeaves[int(b)%len(fuzzLeaves)]
	}
	not := b&0x10 != 0
	sub := func() sqlparser.Expr { return d.expr(depth - 1) }
	switch b & 0x0f {
	case 4, 5, 6:
		op := fuzzBinaryOps[int(d.next())%len(fuzzBinaryOps)]
		return &sqlparser.BinaryExpr{Op: op, L: sub(), R: sub()}
	case 7:
		return &sqlparser.UnaryExpr{Op: "NOT", E: sub()}
	case 8:
		return &sqlparser.UnaryExpr{Op: "-", E: sub()}
	case 9:
		x := &sqlparser.InExpr{E: sub(), Not: not}
		for n := 1 + int(d.next())%3; n > 0; n-- {
			x.List = append(x.List, sub())
		}
		return x
	case 10:
		return &sqlparser.LikeExpr{E: sub(), Pattern: sub(), Not: not}
	case 11:
		return &sqlparser.BetweenExpr{E: sub(), Lo: sub(), Hi: sub(), Not: not}
	case 12:
		return &sqlparser.IsNullExpr{E: sub(), Not: not}
	case 13:
		x := &sqlparser.FuncCall{Name: "f"}
		for n := int(d.next()) % 3; n > 0; n-- {
			x.Args = append(x.Args, sub())
		}
		return x
	case 14:
		return &sqlparser.FuncCall{Name: "SUM", Args: []sqlparser.Expr{sub()}}
	case 15:
		return &sqlparser.FuncCall{Name: "nofn", Args: []sqlparser.Expr{sub()}}
	}
	return fuzzLeaves[int(d.next())%len(fuzzLeaves)]
}
