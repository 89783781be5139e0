// Package durabilityerr polices error handling on the paths that decide
// whether committed data survives a crash. A dropped error from Sync,
// Close-on-a-written-file, Write, Flush or Checkpoint converts "the WAL
// frame is on disk" into "the WAL frame is probably on disk", which is
// exactly the bug class the recovery suite cannot catch (the test
// filesystem never fails).
//
// Checks, scoped to internal/fsutil, internal/sqldb, internal/store,
// internal/proxy, internal/repl and cmd/ (the durability and serving
// paths — helper packages like workload generators are exempt):
//
//  1. Statement-position calls that discard a returned error, when the
//     callee is durability-relevant by name (Sync, Close, Write,
//     WriteString, Flush, Checkpoint, Truncate, Rename). A bare call is
//     tolerated only inside a block that already returns a non-nil error
//     (best-effort cleanup on an error path).
//
//  2. defer f.Close() where f came from a writing open
//     (os.Create/OpenFile, fsutil's OpenFile/Install): the deferred
//     Close's error vanishes, and on some filesystems Close is where
//     delayed write errors surface.
//     Write-path files must be closed explicitly with the error checked
//     (or via a named-return wrapper).
//
//  3. Blank-discarded errors — `x, _ :=` — from durability-relevant
//     callees, including Marshal-family (a swallowed Marshal error
//     persists an empty manifest).
//
//  4. Shadow-overwrites: `err = f()` immediately followed by another
//     `err = g()` in the same block with no read of err in between — the
//     first failure is silently lost.
package durabilityerr

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/vet"
)

const name = "durabilityerr"

var Analyzer = &vet.Analyzer{
	Name: name,
	Doc:  "dropped, blank-discarded or shadowed errors on durability-critical paths",
	Run:  run,
}

// durabilityNames are callee names whose error results must not be
// dropped on the write path.
var durabilityNames = map[string]bool{
	"Sync": true, "Close": true, "Write": true, "WriteString": true,
	"Flush": true, "Checkpoint": true, "Truncate": true, "Rename": true,
}

func inScope(path string) bool {
	return vet.PathContains(path, "internal/fsutil") ||
		vet.PathContains(path, "internal/sqldb") ||
		vet.PathContains(path, "internal/store") ||
		vet.PathContains(path, "internal/proxy") ||
		vet.PathContains(path, "internal/repl") ||
		vet.PathContains(path, "cmd")
}

func run(m *vet.Module) []vet.Finding {
	var out []vet.Finding
	for _, pkg := range m.Pkgs {
		if !inScope(pkg.Path) {
			continue
		}
		vet.EachFunc(pkg, func(fd *ast.FuncDecl) {
			out = append(out, checkFunc(m, pkg, fd)...)
		})
	}
	return out
}

func checkFunc(m *vet.Module, pkg *vet.Package, fd *ast.FuncDecl) []vet.Finding {
	var out []vet.Finding
	writeFiles := writeOpenedFiles(pkg, fd)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			out = append(out, shadowedErr(m, pkg, n)...)
		case *ast.ExprStmt:
			call, ok := n.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := vet.CalleeFunc(pkg.Info, call)
			if fn == nil || !durabilityNames[fn.Name()] || !vet.LastResultIsError(fn) {
				return true
			}
			if inMemoryWriter(pkg, call, fn) {
				return true
			}
			if onErrorPath(pkg, fd.Body, n) {
				return true
			}
			out = append(out, vet.Finding{
				Pos:      m.Fset.Position(call.Pos()),
				Analyzer: name,
				Message:  fmt.Sprintf("error from %s dropped on a durability path — check it or annotate the cleanup", fn.Name()),
			})
		case *ast.DeferStmt:
			call := n.Call
			fn := vet.CalleeFunc(pkg.Info, call)
			if fn == nil || fn.Name() != "Close" {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := vet.FieldObj(pkg.Info, sel.X)
			if obj == nil || !writeFiles[obj] {
				return true
			}
			out = append(out, vet.Finding{
				Pos:      m.Fset.Position(n.Pos()),
				Analyzer: name,
				Message:  fmt.Sprintf("deferred Close on write-opened file %s discards the error — close explicitly and check it", obj.Name()),
			})
		case *ast.AssignStmt:
			out = append(out, blankDiscard(m, pkg, n)...)
		}
		return true
	})
	return out
}

// inMemoryWriter reports whether the callee is a method on an in-memory
// writer whose error result is documented never to be non-nil
// (bytes.Buffer, strings.Builder, the hash.Hash family) — a dropped error
// there cannot lose durable state. The check looks at the static type of
// the receiver expression, not the method's declaring type: hash.Hash
// gets Write by embedding io.Writer, and io.Writer itself must stay a
// sink.
func inMemoryWriter(pkg *vet.Package, call *ast.CallExpr, fn *types.Func) bool {
	exempt := func(t types.Type) bool {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		n, ok := t.(*types.Named)
		if !ok || n.Obj().Pkg() == nil {
			return false
		}
		p := n.Obj().Pkg().Path()
		return p == "bytes" || p == "strings" || p == "hash" ||
			strings.HasPrefix(p, "hash/")
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if t := pkg.Info.Types[sel.X].Type; t != nil && exempt(t) {
			return true
		}
	}
	if recv := vet.RecvNamed(fn); recv != nil {
		return exempt(recv)
	}
	return false
}

// writeOpenedFiles finds local file variables produced by a writing open
// (os.Create, os.OpenFile, and fsutil's FS.OpenFile and Install).
func writeOpenedFiles(pkg *vet.Package, fd *ast.FuncDecl) map[types.Object]bool {
	files := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := vet.CalleeFunc(pkg.Info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch path := fn.Pkg().Path(); {
		case path == "os" && (fn.Name() == "Create" || fn.Name() == "OpenFile"):
		case vet.PathContains(path, "internal/fsutil") && (fn.Name() == "OpenFile" || fn.Name() == "Install"):
		default:
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
			if obj := pkg.Info.Defs[id]; obj != nil {
				files[obj] = true
			} else if obj := pkg.Info.Uses[id]; obj != nil {
				files[obj] = true
			}
		}
		return true
	})
	return files
}

// onErrorPath reports whether stmt sits inside a block that returns a
// non-nil error value — the best-effort cleanup idiom:
//
//	if err != nil { f.Close(); return err }
func onErrorPath(pkg *vet.Package, body *ast.BlockStmt, stmt ast.Stmt) bool {
	// Find the innermost enclosing block of stmt.
	var blocks []*ast.BlockStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if b, ok := n.(*ast.BlockStmt); ok {
			if b.Pos() <= stmt.Pos() && stmt.End() <= b.End() {
				blocks = append(blocks, b)
			}
		}
		return true
	})
	if len(blocks) == 0 {
		return false
	}
	inner := blocks[len(blocks)-1]
	for _, s := range inner.List {
		ret, ok := s.(*ast.ReturnStmt)
		if !ok {
			continue
		}
		for _, r := range ret.Results {
			t := pkg.Info.Types[r].Type
			if t == nil {
				continue
			}
			if named, ok := t.(*types.Named); ok &&
				named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
				if id, ok := ast.Unparen(r).(*ast.Ident); ok && id.Name == "nil" {
					continue
				}
				return true
			}
		}
	}
	return false
}

// blankDiscard flags `x, _ := f()` when f is durability-relevant or a
// Marshal-family encoder and the blank discards its error.
func blankDiscard(m *vet.Module, pkg *vet.Package, as *ast.AssignStmt) []vet.Finding {
	if len(as.Rhs) != 1 {
		return nil
	}
	blankLast := false
	if id, ok := as.Lhs[len(as.Lhs)-1].(*ast.Ident); ok && id.Name == "_" {
		blankLast = true
	}
	if !blankLast {
		return nil
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return nil
	}
	fn := vet.CalleeFunc(pkg.Info, call)
	if fn == nil || !vet.LastResultIsError(fn) {
		return nil
	}
	callee := fn.Name()
	if !durabilityNames[callee] && !strings.Contains(callee, "Marshal") {
		return nil
	}
	return []vet.Finding{{
		Pos:      m.Fset.Position(as.Pos()),
		Analyzer: name,
		Message:  fmt.Sprintf("error from %s discarded with _ on a durability path", callee),
	}}
}

// shadowedErr flags sibling statements `err = f(); err = g()` with no
// read of err between the two writes.
func shadowedErr(m *vet.Module, pkg *vet.Package, block *ast.BlockStmt) []vet.Finding {
	var out []vet.Finding
	var lastWrite map[types.Object]ast.Stmt
	lastWrite = make(map[types.Object]ast.Stmt)
	for _, s := range block.List {
		as, ok := s.(*ast.AssignStmt)
		if !ok {
			// Any other statement may read err (if err != nil, return err,
			// use in call); reset conservatively if it mentions the vars.
			clearReads(pkg, s, lastWrite)
			continue
		}
		// Reads on the RHS first.
		for _, r := range as.Rhs {
			clearReadsExpr(pkg, r, lastWrite)
		}
		for _, l := range as.Lhs {
			id, ok := l.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := pkg.Info.Uses[id]
			if obj == nil {
				obj = pkg.Info.Defs[id]
			}
			if obj == nil || !isErrorType(obj.Type()) {
				continue
			}
			if prev, dirty := lastWrite[obj]; dirty && as.Tok == token.ASSIGN {
				out = append(out, vet.Finding{
					Pos:      m.Fset.Position(as.Pos()),
					Analyzer: name,
					Message: fmt.Sprintf("assignment shadows unchecked error %s set at line %d",
						obj.Name(), m.Fset.Position(prev.Pos()).Line),
				})
			}
			lastWrite[obj] = as
		}
	}
	return out
}

func clearReads(pkg *vet.Package, s ast.Stmt, lastWrite map[types.Object]ast.Stmt) {
	ast.Inspect(s, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pkg.Info.Uses[id]; obj != nil {
				delete(lastWrite, obj)
			}
		}
		return true
	})
}

func clearReadsExpr(pkg *vet.Package, e ast.Expr, lastWrite map[types.Object]ast.Stmt) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pkg.Info.Uses[id]; obj != nil {
				delete(lastWrite, obj)
			}
		}
		return true
	})
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
