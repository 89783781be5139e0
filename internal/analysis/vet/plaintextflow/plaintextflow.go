// Package plaintextflow enforces CryptDB's core invariant: plaintext and
// key material never cross below the proxy's encryption chokepoints. The
// DBMS — everything behind store.Engine/store.Conn, including its WAL
// files — must only ever see onion ciphertexts and sealed metadata blobs;
// logs and network writes must never leak decrypted values or derived
// keys.
//
// The pass is an intra-procedural taint analysis over the packages where
// plaintext legitimately exists (internal/proxy, internal/mp,
// cmd/cryptdb-server). Taint sources:
//
//   - results of Decrypt-named calls into internal/crypto (rnd, det, ope,
//     hom, cmc, search) and of decrypt* helpers in the analyzed package;
//   - key material: any value typed by internal/crypto/keys, any named
//     "Key" type under internal/crypto (hom.Key, joinadj.Key), results of
//     calls into internal/crypto/keys, and *key-named helpers (colKey,
//     joinKey);
//   - parser plaintext: sqlparser-typed function parameters (statement
//     ASTs carry application literals until the rewrite encrypts them);
//   - in cmd/cryptdb-server: result sets from Execute calls, which hold
//     decrypted rows.
//
// Sinks: arguments of store.Engine/store.Conn/sqldb execution methods
// (Exec, ExecSQL, ExecWithMeta, ExecAutonomous[WithMeta],
// ExecAutonomousListWithMeta), fmt/log printing, and net.Conn writes.
// Encryption chokepoints declassify: a call whose callee name contains
// "encrypt" or "seal" returns ciphertext. Deliberate exceptions — the onion-adjustment UPDATE
// that ships a layer key to the DBMS by design, the server writing
// decrypted rows back to the trusted application side — carry
// //cryptdb:sink-ok annotations with their justification.
//
// The analysis is deliberately under-approximating: taint propagates only
// through modeled constructs (assignment, composite literals, indexing,
// string/bytes/fmt-style transformations, method calls on tainted
// receivers), never through unknown function calls. A silent run
// therefore doesn't prove confinement, but every finding is worth
// reading, which is what lets CI treat any finding as a hard failure.
package plaintextflow

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/vet"
)

const name = "plaintextflow"

var Analyzer = &vet.Analyzer{
	Name: name,
	Doc:  "plaintext and key material must not reach the store engine, logs, or the network except via encryption chokepoints",
	Run:  run,
}

// engineSinkMethods are the execution-surface methods of
// store.Engine/store.Conn and the underlying sqldb types.
var engineSinkMethods = map[string]bool{
	"Exec": true, "ExecSQL": true, "ExecWithMeta": true,
	"ExecAutonomous": true, "ExecAutonomousWithMeta": true, "ExecAutonomousListWithMeta": true,
}

// fmtSinks are fmt functions that emit to a writer or the console;
// Sprint-style formatters are propagators instead.
var fmtSinks = map[string]int{
	// name -> index of first data argument (skips the io.Writer)
	"Print": 0, "Println": 0, "Printf": 0,
	"Fprint": 1, "Fprintln": 1, "Fprintf": 1,
}

func inScope(path string) bool {
	return vet.PathContains(path, "internal/proxy") ||
		vet.PathContains(path, "internal/mp") ||
		strings.HasSuffix(path, "cmd/cryptdb-server")
}

func isServerPkg(path string) bool {
	return strings.HasSuffix(path, "cmd/cryptdb-server")
}

func run(m *vet.Module) []vet.Finding {
	var out []vet.Finding
	for _, pkg := range m.Pkgs {
		if !inScope(pkg.Path) {
			continue
		}
		server := isServerPkg(pkg.Path)
		vet.EachFunc(pkg, func(fd *ast.FuncDecl) {
			a := &funcTaint{
				m: m, pkg: pkg, server: server,
				taint: make(map[types.Object]string),
			}
			a.seedParams(fd)
			out = append(out, a.reportSinks(fd.Body)...)
		})
	}
	return out
}

// funcTaint is the per-function taint state: every tainted object maps to
// a human-readable description of where its taint came from.
type funcTaint struct {
	m      *vet.Module
	pkg    *vet.Package
	server bool
	taint  map[types.Object]string
}

// seedParams taints sqlparser-typed parameters: an incoming statement AST
// carries the application's plaintext literals until the rewrite replaces
// them with ciphertext.
func (a *funcTaint) seedParams(fd *ast.FuncDecl) {
	if fd.Type.Params == nil {
		return
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj := a.pkg.Info.Defs[name]
			if obj == nil {
				continue
			}
			if isParserType(obj.Type()) {
				a.taint[obj] = "statement AST (may carry plaintext literals)"
			}
		}
	}
}

// isParserType reports whether t is (a pointer/slice of) a named type
// declared in internal/sqlparser.
func isParserType(t types.Type) bool {
	switch t := t.(type) {
	case *types.Pointer:
		return isParserType(t.Elem())
	case *types.Slice:
		return isParserType(t.Elem())
	case *types.Named:
		return vet.DeclaredIn(t.Obj(), "internal/sqlparser")
	}
	return false
}

// isKeyMaterialType reports whether t is key material by type: anything
// from internal/crypto/keys, or a named "Key" type under internal/crypto.
func isKeyMaterialType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	if vet.DeclaredIn(n.Obj(), "internal/crypto/keys") {
		return true
	}
	return n.Obj().Name() == "Key" && vet.DeclaredIn(n.Obj(), "internal/crypto")
}

// fixpointBody walks the body repeatedly until the taint set stabilizes.
func (a *funcTaint) fixpointBody(body ast.Node) {
	for range [10]struct{}{} {
		before := len(a.taint)
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				a.assign(n)
			case *ast.GenDecl:
				for _, spec := range n.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						if i < len(vs.Values) {
							if t, why := a.exprTaint(vs.Values[i]); t {
								a.mark(a.pkg.Info.Defs[name], why)
							}
						}
					}
				}
			case *ast.RangeStmt:
				if t, why := a.exprTaint(n.X); t {
					for _, e := range []ast.Expr{n.Key, n.Value} {
						if id, ok := e.(*ast.Ident); ok {
							a.mark(a.pkg.Info.Defs[id], why)
							a.mark(a.pkg.Info.Uses[id], why)
						}
					}
				}
			}
			return true
		})
		if len(a.taint) == before {
			return
		}
	}
}

func (a *funcTaint) mark(obj types.Object, why string) {
	if obj == nil {
		return
	}
	if _, ok := a.taint[obj]; !ok {
		a.taint[obj] = why
	}
}

func (a *funcTaint) assign(n *ast.AssignStmt) {
	// Tuple form a, b := call(): a source call taints every non-error LHS.
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		if t, why := a.exprTaint(n.Rhs[0]); t {
			for _, lhs := range n.Lhs {
				a.markLHS(lhs, why)
			}
		}
		return
	}
	for i, lhs := range n.Lhs {
		if i >= len(n.Rhs) {
			break
		}
		if t, why := a.exprTaint(n.Rhs[i]); t {
			a.markLHS(lhs, why)
		}
	}
}

// markLHS taints the object behind an assignment target: the ident
// itself, or the base of an index/field store (writing a tainted element
// taints the container).
func (a *funcTaint) markLHS(lhs ast.Expr, why string) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if isErrorIdent(a.pkg.Info, lhs) {
			return
		}
		if obj := a.pkg.Info.Defs[lhs]; obj != nil {
			a.mark(obj, why)
			return
		}
		a.mark(a.pkg.Info.Uses[lhs], why)
	case *ast.IndexExpr:
		a.markLHS(lhs.X, why)
	case *ast.SelectorExpr:
		// Deliberately NOT tainting the base: `p.homKey = k` would mark
		// the whole proxy object and every later read of any field on it
		// — the restore path assigns dozens of key fields and the cascade
		// drowns real findings. Reads of key-material-typed fields stay
		// tainted through the type-based check in exprTaint.
	case *ast.StarExpr:
		a.markLHS(lhs.X, why)
	}
}

func isErrorIdent(info *types.Info, id *ast.Ident) bool {
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	if obj == nil {
		return false
	}
	n, ok := obj.Type().(*types.Named)
	return ok && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}

// exprTaint reports whether an expression carries taint, and why.
func (a *funcTaint) exprTaint(e ast.Expr) (bool, string) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := a.pkg.Info.Uses[e]
		if obj == nil {
			obj = a.pkg.Info.Defs[e]
		}
		if why, ok := a.taint[obj]; ok {
			return true, why
		}
		if obj != nil && isKeyMaterialType(obj.Type()) {
			return true, "key material (" + obj.Name() + ")"
		}
	case *ast.SelectorExpr:
		if sel, ok := a.pkg.Info.Selections[e]; ok && isKeyMaterialType(sel.Type()) {
			return true, "key material (" + e.Sel.Name + ")"
		}
		if t, why := a.exprTaint(e.X); t {
			return true, why
		}
	case *ast.CallExpr:
		return a.callTaint(e)
	case *ast.BinaryExpr:
		if t, why := a.exprTaint(e.X); t {
			return true, why
		}
		return a.exprTaint(e.Y)
	case *ast.UnaryExpr:
		return a.exprTaint(e.X)
	case *ast.StarExpr:
		return a.exprTaint(e.X)
	case *ast.IndexExpr:
		return a.exprTaint(e.X)
	case *ast.SliceExpr:
		return a.exprTaint(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if t, why := a.exprTaint(el); t {
				return true, why
			}
		}
	case *ast.TypeAssertExpr:
		return a.exprTaint(e.X)
	}
	return false, ""
}

// callTaint classifies a call as declassifier, source, or propagator.
func (a *funcTaint) callTaint(call *ast.CallExpr) (bool, string) {
	// Conversions: string(b), []byte(s) — taint follows the operand.
	if tv, ok := a.pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return a.exprTaint(call.Args[0])
	}
	// Builtins append/copy propagate.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if id.Name == "append" || id.Name == "copy" {
			for _, arg := range call.Args {
				if t, why := a.exprTaint(arg); t {
					return true, why
				}
			}
			return false, ""
		}
	}
	fn := vet.CalleeFunc(a.pkg.Info, call)
	if fn != nil {
		lower := strings.ToLower(fn.Name())
		// Declassifiers: encryption and sealing chokepoints return
		// ciphertext regardless of what went in.
		if strings.Contains(lower, "encrypt") || strings.Contains(lower, "seal") {
			return false, ""
		}
		// Sources.
		if strings.Contains(lower, "decrypt") &&
			(vet.DeclaredIn(fn, "internal/crypto") || fn.Pkg() == a.pkg.Pkg) {
			return true, "decryption result (" + fn.Name() + ")"
		}
		if vet.DeclaredIn(fn, "internal/crypto/keys") {
			return true, "key material (" + fn.Name() + ")"
		}
		if recv := vet.RecvNamed(fn); recv != nil && isKeyMaterialType(recv) {
			return true, "key material (" + fn.Name() + ")"
		}
		if strings.HasSuffix(lower, "key") &&
			(vet.DeclaredIn(fn, "internal/proxy") || vet.DeclaredIn(fn, "internal/mp") || vet.DeclaredIn(fn, "internal/crypto")) {
			return true, "key material (" + fn.Name() + ")"
		}
		if a.server && fn.Name() == "Execute" {
			return true, "decrypted result set (Execute)"
		}
		// Propagators: pure string/byte/encoding transformations.
		if fn.Pkg() != nil {
			switch fn.Pkg().Path() {
			case "strings", "strconv", "bytes", "encoding/json", "encoding/hex", "encoding/base64":
				for _, arg := range call.Args {
					if t, why := a.exprTaint(arg); t {
						return true, why
					}
				}
				return false, ""
			case "fmt":
				if strings.HasPrefix(fn.Name(), "Sprint") || fn.Name() == "Errorf" || strings.HasPrefix(fn.Name(), "Append") {
					for _, arg := range call.Args {
						if t, why := a.exprTaint(arg); t {
							return true, why
						}
					}
					return false, ""
				}
			}
		}
	}
	// A method call on a tainted receiver yields tainted data
	// (v.String() on a decrypted value).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if t, why := a.exprTaint(sel.X); t {
			return true, why
		}
	}
	return false, ""
}

// reportSinks does the final pass: every sink call gets its arguments
// checked against the converged taint state.
func (a *funcTaint) reportSinks(body ast.Node) []vet.Finding {
	a.fixpointBody(body)
	var out []vet.Finding
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := vet.CalleeFunc(a.pkg.Info, call)
		if fn == nil {
			return true
		}
		checkArgs := func(from int, sink string) {
			for i := from; i < len(call.Args); i++ {
				if t, why := a.exprTaint(call.Args[i]); t {
					out = append(out, vet.Finding{
						Pos:      a.m.Fset.Position(call.Pos()),
						Analyzer: name,
						Message:  why + " reaches " + sink + " in call to " + fn.Name(),
					})
				}
			}
		}
		if recv := vet.RecvNamed(fn); recv != nil && engineSinkMethods[fn.Name()] &&
			(vet.DeclaredIn(recv.Obj(), "internal/store") || vet.DeclaredIn(recv.Obj(), "internal/sqldb")) {
			checkArgs(0, "the storage engine (ciphertext-only boundary)")
			return true
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			if from, ok := fmtSinks[fn.Name()]; ok {
				checkArgs(from, "a console/log sink")
			}
			return true
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == "log" {
			checkArgs(0, "a log sink")
			return true
		}
		if recv := vet.RecvNamed(fn); recv != nil &&
			(fn.Name() == "Write" || fn.Name() == "WriteString") &&
			recv.Obj().Pkg() != nil && recv.Obj().Pkg().Path() == "net" {
			checkArgs(0, "a network connection")
		}
		return true
	})
	return out
}
