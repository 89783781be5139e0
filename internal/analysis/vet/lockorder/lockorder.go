// Package lockorder enforces the repository's locking discipline:
//
//  1. Lock acquisition order is acyclic. Every mutex field is a node
//     (identified by its field/variable declaration, so all 64 stripes of
//     the slot-lock table are one node); an edge A→B is recorded whenever
//     B is acquired while A is held, including through static calls (a
//     call under lock to a function that may acquire elsewhere). Any
//     cycle in the global graph is reported at each participating edge.
//
//  2. No shared lock (sync.RWMutex — a lock with readers) is held across
//     an fsync or network operation. The WAL group-commit design depends
//     on this: committers stage frames under the database lock but the
//     leader pays the fsync off-lock. Plain Mutexes that serialize a
//     single session's or connection's own pipeline are exempt — their
//     owner's commit rides under them by construction and stalls nobody
//     else.
//     Functions that release a lock their caller holds (leadUntilDone,
//     drainLocked) are modeled: a callee's "foreign unlocks" are
//     subtracted from the held set before the check. Deliberate
//     exceptions — checkpoint quiesces the world by design — carry
//     //cryptdb:vet-ok lockorder: annotations.
//
//  3. Mutex-bearing structs are not copied by value (parameters, results,
//     assignments from existing values, range copies).
//
//  4. No field mixes atomic and non-atomic access: a field that appears
//     in any sync/atomic call must be accessed atomically everywhere
//     (composite-literal initialization before publication is exempt).
//     PR 4 fixed exactly one such race (InProxySorts) by hand; this makes
//     the class mechanical.
//
// Analysis is name-insensitive and instance-insensitive: lock identity is
// the declared field, so two instances of the same struct alias one node
// and self-edges are skipped (stripe-ordered multi-acquisition would need
// instance tracking to judge).
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"repro/internal/analysis/vet"
)

const name = "lockorder"

var Analyzer = &vet.Analyzer{
	Name: name,
	Doc:  "lock acquisition order, fsync/net under lock, mutex copies, mixed atomic access",
	Run:  run,
}

// facts are the per-function summaries used for transitive propagation.
type facts struct {
	acquires       map[types.Object]token.Pos // blocking acquisitions
	foreignUnlocks map[types.Object]bool      // unlocks of locks not acquired here
	syncs          bool                       // direct fsync/net I/O
	callees        map[*types.Func]bool       // static module-internal calls
}

type edge struct {
	from, to types.Object
	pos      token.Pos
	what     string // description of the acquisition site
}

func run(m *vet.Module) []vet.Finding {
	var out []vet.Finding

	// Pass 1: collect per-function facts across the whole module.
	fns := make(map[*types.Func]*facts)
	bodies := make(map[*types.Func]*ast.FuncDecl)
	pkgOf := make(map[*types.Func]*vet.Package)
	for _, pkg := range m.Pkgs {
		vet.EachFunc(pkg, func(fd *ast.FuncDecl) {
			obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				return
			}
			fns[obj] = collectFacts(pkg, fd)
			bodies[obj] = fd
			pkgOf[obj] = pkg
		})
	}

	// Fixpoint: propagate may-sync, may-acquire and foreign unlocks
	// through static calls.
	mayAcquire := make(map[*types.Func]map[types.Object]bool)
	maySync := make(map[*types.Func]bool)
	mayForeign := make(map[*types.Func]map[types.Object]bool)
	for fn, f := range fns {
		mayAcquire[fn] = make(map[types.Object]bool)
		for o := range f.acquires {
			mayAcquire[fn][o] = true
		}
		maySync[fn] = f.syncs
		mayForeign[fn] = make(map[types.Object]bool)
		for o := range f.foreignUnlocks {
			mayForeign[fn][o] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, f := range fns {
			for callee := range f.callees {
				if _, ok := fns[callee]; !ok {
					continue
				}
				if maySync[callee] && !maySync[fn] {
					maySync[fn] = true
					changed = true
				}
				for o := range mayAcquire[callee] {
					if !mayAcquire[fn][o] {
						mayAcquire[fn][o] = true
						changed = true
					}
				}
				for o := range mayForeign[callee] {
					if !mayForeign[fn][o] {
						mayForeign[fn][o] = true
						changed = true
					}
				}
			}
		}
	}

	// Pass 2: region walk per function — order edges and sync-under-lock.
	var edges []edge
	for fn, fd := range bodies {
		pkg := pkgOf[fn]
		w := &regionWalker{
			m: m, pkg: pkg, fns: fns,
			mayAcquire: mayAcquire, maySync: maySync, mayForeign: mayForeign,
			held: make(map[types.Object]token.Pos),
		}
		w.walkBody(fd.Body)
		edges = append(edges, w.edges...)
		out = append(out, w.findings...)
	}

	// Cycle detection over the global acquisition graph.
	out = append(out, cycleFindings(m, edges)...)

	// Independent sub-checks.
	for _, pkg := range m.Pkgs {
		out = append(out, copyLocks(m, pkg)...)
		out = append(out, atomicMix(m, pkg)...)
	}
	return out
}

// lockObj resolves x in x.Lock()/x.RLock() to the mutex's declaring
// object when x is a sync.Mutex or sync.RWMutex field/variable.
func lockObj(pkg *vet.Package, call *ast.CallExpr) (obj types.Object, method string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	fn := vet.CalleeFunc(pkg.Info, call)
	if fn == nil {
		return nil, ""
	}
	recv := vet.RecvNamed(fn)
	if recv == nil || recv.Obj().Pkg() == nil || recv.Obj().Pkg().Path() != "sync" {
		return nil, ""
	}
	if name := recv.Obj().Name(); name != "Mutex" && name != "RWMutex" {
		return nil, ""
	}
	return vet.FieldObj(pkg.Info, sel.X), fn.Name()
}

// isSyncCall reports whether a call is a direct fsync or network
// operation.
func isSyncCall(pkg *vet.Package, call *ast.CallExpr) (bool, string) {
	fn := vet.CalleeFunc(pkg.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return false, ""
	}
	if recv := vet.RecvNamed(fn); recv != nil {
		if recv.Obj().Pkg() != nil {
			switch {
			case recv.Obj().Pkg().Path() == "os" && recv.Obj().Name() == "File" && fn.Name() == "Sync":
				return true, "fsync"
			case recv.Obj().Pkg().Path() == "net" && recv.Obj().Name() == "Conn" &&
				(fn.Name() == "Write" || fn.Name() == "Read"):
				return true, "network I/O"
			}
		}
		return false, ""
	}
	if fn.Pkg().Path() == "net" && strings.HasPrefix(fn.Name(), "Dial") {
		return true, "network dial"
	}
	return false, ""
}

func collectFacts(pkg *vet.Package, fd *ast.FuncDecl) *facts {
	f := &facts{
		acquires:       make(map[types.Object]token.Pos),
		foreignUnlocks: make(map[types.Object]bool),
		callees:        make(map[*types.Func]bool),
	}
	acquired := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if obj, method := lockObj(pkg, call); obj != nil {
			switch method {
			case "Lock", "RLock":
				f.acquires[obj] = call.Pos()
				acquired[obj] = true
			case "Unlock", "RUnlock":
				if !acquired[obj] {
					f.foreignUnlocks[obj] = true
				}
			}
			return true
		}
		if ok, _ := isSyncCall(pkg, call); ok {
			f.syncs = true
			return true
		}
		if fn := vet.CalleeFunc(pkg.Info, call); fn != nil && fn.Pkg() != nil &&
			(fn.Pkg().Path() == pkg.Path || vet.PathContains(fn.Pkg().Path(), "internal")) {
			f.callees[fn] = true
		}
		return true
	})
	return f
}

// regionWalker tracks the held-lock set through a function body. The walk
// is flow-aware at branch granularity: each arm of an if/switch/select and
// each loop body starts from the held set at entry and its changes are
// discarded afterwards — a defer Unlock inside one switch case must not
// leak "held" into sibling cases. Straight-line code threads the set
// through sequentially. Unlocks inside deferred closures are ignored
// (they run at return); function literals are walked with a fresh held
// set, since a closure runs on its own schedule.
type regionWalker struct {
	m          *vet.Module
	pkg        *vet.Package
	fns        map[*types.Func]*facts
	mayAcquire map[*types.Func]map[types.Object]bool
	maySync    map[*types.Func]bool
	mayForeign map[*types.Func]map[types.Object]bool

	held     map[types.Object]token.Pos
	edges    []edge
	findings []vet.Finding
}

func (w *regionWalker) walkBody(body *ast.BlockStmt) {
	if body == nil {
		return
	}
	for _, s := range body.List {
		w.stmt(s)
	}
}

func (w *regionWalker) snapshot() map[types.Object]token.Pos {
	c := make(map[types.Object]token.Pos, len(w.held))
	for o, p := range w.held {
		c[o] = p
	}
	return c
}

// branch walks one conditional arm from the current held set and restores
// it afterwards.
func (w *regionWalker) branch(saved map[types.Object]token.Pos, walk func()) {
	walk()
	restored := make(map[types.Object]token.Pos, len(saved))
	for o, p := range saved {
		restored[o] = p
	}
	w.held = restored
}

func (w *regionWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			w.stmt(st)
		}
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		saved := w.snapshot()
		w.branch(saved, func() { w.stmt(s.Body) })
		if s.Else != nil {
			w.branch(saved, func() { w.stmt(s.Else) })
		}
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		if s.Tag != nil {
			w.expr(s.Tag)
		}
		w.caseClauses(s.Body)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Assign)
		w.caseClauses(s.Body)
	case *ast.SelectStmt:
		saved := w.snapshot()
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			w.branch(saved, func() {
				w.stmt(cc.Comm)
				for _, st := range cc.Body {
					w.stmt(st)
				}
			})
		}
	case *ast.ForStmt:
		w.stmt(s.Init)
		if s.Cond != nil {
			w.expr(s.Cond)
		}
		saved := w.snapshot()
		w.branch(saved, func() { w.stmt(s.Body); w.stmt(s.Post) })
	case *ast.RangeStmt:
		w.expr(s.X)
		saved := w.snapshot()
		w.branch(saved, func() { w.stmt(s.Body) })
	case *ast.DeferStmt:
		// defer x.Unlock() keeps x held until return. Other deferred
		// calls run at return time, when the held set here no longer
		// applies; only a deferred closure's own body is analyzed (with
		// a fresh set, via the FuncLit case in expr).
		if obj, method := lockObj(w.pkg, s.Call); obj != nil &&
			(method == "Unlock" || method == "RUnlock") {
			return
		}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			w.funcLit(lit)
		}
	case *ast.GoStmt:
		// A spawned goroutine does not inherit our held set — but the spawn
		// itself is a handoff hazard: if the goroutine may (re)acquire a
		// lock the spawner still holds, and the spawner joins the pool
		// under that lock (worker fan-out, WaitGroup.Wait), the pair
		// deadlocks. Even read-read on an RWMutex wedges once a writer
		// queues between the two acquisitions. A worker pool spawned under
		// a statement lock would have to leave that lock to its spawner;
		// today no spawn site holds one, and this check keeps it so.
		if len(w.held) > 0 {
			w.checkSpawn(s)
		}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			w.funcLit(lit)
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e)
		}
		for _, e := range s.Lhs {
			w.expr(e)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e)
		}
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.IncDecStmt:
		w.expr(s.X)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.expr(e)
					}
				}
			}
		}
	}
}

// checkSpawn flags a goroutine launched while locks are held whose body —
// or any function it statically reaches — may acquire one of those same
// locks. The spawned side's acquisitions are collected the same way
// per-function facts are: direct Lock/RLock calls plus the transitive
// may-acquire sets of module-internal callees.
func (w *regionWalker) checkSpawn(s *ast.GoStmt) {
	acquired := make(map[types.Object]token.Pos)
	if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if obj, method := lockObj(w.pkg, call); obj != nil {
				if method == "Lock" || method == "RLock" {
					acquired[obj] = call.Pos()
				}
				return true
			}
			if fn := vet.CalleeFunc(w.pkg.Info, call); fn != nil {
				for o := range w.mayAcquire[fn] {
					acquired[o] = call.Pos()
				}
			}
			return true
		})
	} else if fn := vet.CalleeFunc(w.pkg.Info, s.Call); fn != nil {
		for o := range w.mayAcquire[fn] {
			acquired[o] = s.Call.Pos()
		}
	}
	for o, pos := range acquired {
		if _, heldHere := w.held[o]; !heldHere {
			continue
		}
		w.findings = append(w.findings, vet.Finding{
			Pos:      w.m.Fset.Position(pos),
			Analyzer: name,
			Message: fmt.Sprintf("goroutine spawned while %s is held may reacquire it — if the spawner joins under the lock the handoff deadlocks (a queued writer wedges even RLock/RLock); release first or keep the worker off the lock",
				lockLabel(w.m, o)),
		})
	}
}

func (w *regionWalker) caseClauses(body *ast.BlockStmt) {
	saved := w.snapshot()
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		w.branch(saved, func() {
			for _, e := range cc.List {
				w.expr(e)
			}
			for _, st := range cc.Body {
				w.stmt(st)
			}
		})
	}
}

func (w *regionWalker) funcLit(lit *ast.FuncLit) {
	inner := &regionWalker{
		m: w.m, pkg: w.pkg, fns: w.fns,
		mayAcquire: w.mayAcquire, maySync: w.maySync, mayForeign: w.mayForeign,
		held: make(map[types.Object]token.Pos),
	}
	inner.walkBody(lit.Body)
	w.edges = append(w.edges, inner.edges...)
	w.findings = append(w.findings, inner.findings...)
}

// expr visits calls inside an expression in pre-order, diverting function
// literals to a fresh walker.
func (w *regionWalker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.funcLit(n)
			return false
		case *ast.CallExpr:
			w.call(n)
		}
		return true
	})
}

func (w *regionWalker) call(call *ast.CallExpr) {
	if obj, method := lockObj(w.pkg, call); obj != nil {
		switch method {
		case "Lock", "RLock":
			for held := range w.held {
				if held != obj {
					w.edges = append(w.edges, edge{
						from: held, to: obj, pos: call.Pos(),
						what: fmt.Sprintf("%s acquired while %s held", lockLabel(w.m, obj), lockLabel(w.m, held)),
					})
				}
			}
			w.held[obj] = call.Pos()
		case "Unlock", "RUnlock":
			delete(w.held, obj)
		}
		return
	}
	if len(w.held) == 0 {
		return
	}
	if ok, kind := isSyncCall(w.pkg, call); ok {
		w.reportHeld(call.Pos(), kind, "")
		return
	}
	fn := vet.CalleeFunc(w.pkg.Info, call)
	if fn == nil {
		return
	}
	if _, known := w.fns[fn]; !known {
		return
	}
	// The callee may release locks our caller holds (baton-passing in the
	// WAL writer); subtract before judging.
	effective := make(map[types.Object]token.Pos)
	for o, p := range w.held {
		if !w.mayForeign[fn][o] {
			effective[o] = p
		}
	}
	if len(effective) == 0 {
		return
	}
	if w.maySync[fn] {
		saved := w.held
		w.held = effective
		w.reportHeld(call.Pos(), "fsync/network I/O", " (via "+fn.Name()+")")
		w.held = saved
	}
	for o := range w.mayAcquire[fn] {
		for held := range effective {
			if held != o {
				w.edges = append(w.edges, edge{
					from: held, to: o, pos: call.Pos(),
					what: fmt.Sprintf("%s acquired (via %s) while %s held", lockLabel(w.m, o), fn.Name(), lockLabel(w.m, held)),
				})
			}
		}
	}
}

// reportHeld flags shared (RWMutex) locks held across slow I/O. Plain
// Mutexes are exempt by policy: a per-session or per-connection mutex
// serializes one caller's own pipeline, and that caller's commit
// naturally rides under it — the invariant protects locks with readers,
// which an fsync would stall engine-wide (the WAL group-commit contract).
func (w *regionWalker) reportHeld(pos token.Pos, kind, via string) {
	for o := range w.held {
		if !isRWMutex(o.Type()) {
			continue
		}
		w.findings = append(w.findings, vet.Finding{
			Pos:      w.m.Fset.Position(pos),
			Analyzer: name,
			Message:  fmt.Sprintf("lock %s held across %s%s — stage under the lock, sync off it", lockLabel(w.m, o), kind, via),
		})
	}
}

func isRWMutex(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync" && n.Obj().Name() == "RWMutex"
}

func lockLabel(m *vet.Module, obj types.Object) string {
	p := m.Fset.Position(obj.Pos())
	return fmt.Sprintf("%s (%s:%d)", obj.Name(), filepath.Base(p.Filename), p.Line)
}

// cycleFindings reports every edge that participates in a cycle of the
// global acquisition graph.
func cycleFindings(m *vet.Module, edges []edge) []vet.Finding {
	adj := make(map[types.Object]map[types.Object]bool)
	for _, e := range edges {
		if adj[e.from] == nil {
			adj[e.from] = make(map[types.Object]bool)
		}
		adj[e.from][e.to] = true
	}
	reaches := func(from, to types.Object) bool {
		seen := map[types.Object]bool{}
		var dfs func(types.Object) bool
		dfs = func(n types.Object) bool {
			if n == to {
				return true
			}
			if seen[n] {
				return false
			}
			seen[n] = true
			for next := range adj[n] {
				if dfs(next) {
					return true
				}
			}
			return false
		}
		return dfs(from)
	}
	var out []vet.Finding
	seen := map[string]bool{}
	for _, e := range edges {
		if !reaches(e.to, e.from) {
			continue
		}
		key := fmt.Sprintf("%v->%v@%v", e.from, e.to, e.pos)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, vet.Finding{
			Pos:      m.Fset.Position(e.pos),
			Analyzer: name,
			Message:  "lock acquisition order cycle: " + e.what + ", and the reverse order exists elsewhere",
		})
	}
	return out
}

//
// Mutex-bearing structs passed by value.
//

var lockBearingCache = make(map[types.Type]bool)

func lockBearing(t types.Type) bool {
	if v, ok := lockBearingCache[t]; ok {
		return v
	}
	lockBearingCache[t] = false // cycle guard
	v := lockBearingRec(t, 0)
	lockBearingCache[t] = v
	return v
}

func lockBearingRec(t types.Type, depth int) bool {
	if depth > 6 {
		return false
	}
	switch t := t.(type) {
	case *types.Named:
		if obj := t.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			switch obj.Name() {
			case "Mutex", "RWMutex", "Cond", "WaitGroup", "Once", "Map", "Pool":
				return true
			}
		}
		return lockBearingRec(t.Underlying(), depth+1)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if lockBearingRec(t.Field(i).Type(), depth+1) {
				return true
			}
		}
	case *types.Array:
		return lockBearingRec(t.Elem(), depth+1)
	}
	return false
}

func copyLocks(m *vet.Module, pkg *vet.Package) []vet.Finding {
	var out []vet.Finding
	report := func(pos token.Pos, what string, t types.Type) {
		out = append(out, vet.Finding{
			Pos:      m.Fset.Position(pos),
			Analyzer: name,
			Message:  fmt.Sprintf("%s copies mutex-bearing struct %s — pass a pointer", what, types.TypeString(t, types.RelativeTo(pkg.Pkg))),
		})
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Type.Params != nil {
					for _, f := range n.Type.Params.List {
						if t := pkg.Info.Types[f.Type].Type; t != nil && lockBearing(t) {
							report(f.Pos(), "parameter", t)
						}
					}
				}
				if n.Type.Results != nil {
					for _, f := range n.Type.Results.List {
						if t := pkg.Info.Types[f.Type].Type; t != nil && lockBearing(t) {
							report(f.Pos(), "result", t)
						}
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if i >= len(n.Lhs) {
						break
					}
					if !copiesValue(rhs) {
						continue
					}
					if t := pkg.Info.Types[rhs].Type; t != nil && lockBearing(t) {
						report(rhs.Pos(), "assignment", t)
					}
				}
			case *ast.RangeStmt:
				// A := range value is a definition, recorded in Defs rather
				// than Types.
				if n.Value != nil {
					t := pkg.Info.Types[n.Value].Type
					if id, ok := n.Value.(*ast.Ident); ok && t == nil {
						if obj := pkg.Info.Defs[id]; obj != nil {
							t = obj.Type()
						}
					}
					if t != nil && lockBearing(t) {
						report(n.Value.Pos(), "range value", t)
					}
				}
			}
			return true
		})
	}
	return out
}

// copiesValue reports whether an RHS expression copies an existing value
// (as opposed to constructing a fresh one or transferring a call result).
func copiesValue(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr:
		return true
	case *ast.StarExpr:
		return true
	case *ast.UnaryExpr:
		return e.Op == token.MUL
	}
	return false
}

//
// Mixed atomic / non-atomic field access.
//

func atomicMix(m *vet.Module, pkg *vet.Package) []vet.Finding {
	// Pass 1: fields accessed through sync/atomic, and the spans of those
	// calls (accesses inside them are by definition atomic).
	atomicFields := make(map[types.Object]bool)
	type span struct{ lo, hi token.Pos }
	var atomicSpans []span
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := vet.CalleeFunc(pkg.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			atomicSpans = append(atomicSpans, span{call.Pos(), call.End()})
			if len(call.Args) == 0 {
				return true
			}
			if ue, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr); ok && ue.Op == token.AND {
				if obj := vet.FieldObj(pkg.Info, ue.X); obj != nil {
					atomicFields[obj] = true
				}
			}
			return true
		})
	}
	if len(atomicFields) == 0 {
		return nil
	}
	inAtomic := func(pos token.Pos) bool {
		for _, s := range atomicSpans {
			if pos >= s.lo && pos < s.hi {
				return true
			}
		}
		return false
	}

	// Pass 2: any other access to those fields. Composite-literal keys
	// (pre-publication initialization) are exempt.
	var out []vet.Finding
	for _, file := range pkg.Files {
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			var obj types.Object
			var pos token.Pos
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if sel, ok := pkg.Info.Selections[n]; ok {
					obj, pos = sel.Obj(), n.Sel.Pos()
				}
			case *ast.Ident:
				// Composite-literal keys resolve through Uses; skip them
				// via the parent check below like any other access.
				if len(stack) >= 2 {
					if kv, ok := stack[len(stack)-2].(*ast.KeyValueExpr); ok && kv.Key == n {
						if len(stack) >= 3 {
							if _, isLit := stack[len(stack)-3].(*ast.CompositeLit); isLit {
								return true
							}
						}
					}
				}
				if _, isSel := parentIs[*ast.SelectorExpr](stack); isSel {
					return true // handled at the selector
				}
				obj, pos = pkg.Info.Uses[n], n.Pos()
			default:
				return true
			}
			if obj == nil || !atomicFields[obj] || inAtomic(pos) {
				return true
			}
			out = append(out, vet.Finding{
				Pos:      m.Fset.Position(pos),
				Analyzer: name,
				Message: fmt.Sprintf("field %s is accessed with sync/atomic elsewhere; this plain access races — use atomic.Load/Store",
					obj.Name()),
			})
			return true
		})
	}
	return out
}

// parentIs reports whether the direct parent node in the walk stack has
// type T.
func parentIs[T ast.Node](stack []ast.Node) (T, bool) {
	var zero T
	if len(stack) < 2 {
		return zero, false
	}
	p, ok := stack[len(stack)-2].(T)
	return p, ok
}
