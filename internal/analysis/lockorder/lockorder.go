// Package lockorder enforces the shard-mutex discipline the
// Virtualizer documents in prose (PR 1): shard locks
// (metrics.ContendedMutex) nest only in downstream→upstream pipeline
// order, the plain mutexes (ctxMu, simMu) are never held while a
// shard lock is acquired, and nothing that can block on another
// goroutine — a notify-hub publish or delivery, a channel send — runs
// while a shard lock is held. The hub's Take and Await stay legal there:
// they only touch the ledger, under the innermost hub lock.
//
// The analysis is function-local. It tracks Lock/Unlock pairs in
// statement order within each function; a function entered with a
// shard lock already held (the "Caller holds cs's lock" convention)
// declares that with //simfs:locked <which lock>, extending the
// checked region across the call boundary. The one sanctioned
// nesting — locking the upstream shard while holding the downstream
// one — is annotated //simfs:allow lockorder at the acquisition
// site, with the ordering argument as the reason.
//
// Type matching is by name (a named type ContendedMutex, the sync
// package's Mutex/RWMutex, a Hub's Publish and Deliver methods), so the
// analyzer is testable outside the simfs module.
package lockorder

import (
	"go/ast"
	"go/types"
	"strings"

	"simfs/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "check shard-mutex ordering: no nested shard locks outside the sanctioned " +
		"pipeline order, no shard lock under ctxMu/simMu, and no publish or blocking " +
		"send while a shard lock is held",
	Run: run,
}

type lockState struct {
	shard map[string]int // held ContendedMutex receivers, by expression text
	plain map[string]int // held sync.Mutex/sync.RWMutex receivers
}

func newState() *lockState {
	return &lockState{shard: map[string]int{}, plain: map[string]int{}}
}

func (s *lockState) copy() *lockState {
	c := newState()
	for k, v := range s.shard {
		c.shard[k] = v
	}
	for k, v := range s.plain {
		c.plain[k] = v
	}
	return c
}

func (s *lockState) shardHeld() bool { return len(s.shard) > 0 }

func (s *lockState) heldNames() string {
	// Deterministic order for messages: there is at most a handful.
	names := make([]string, 0, len(s.shard))
	for k := range s.shard {
		names = append(names, k)
	}
	sortStrings(names)
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			st := newState()
			if held, ok := analysis.HasDirective(fn.Doc, "locked"); ok {
				// The caller holds a shard lock for the whole call.
				st.shard["caller:"+held] = 1
			}
			c.walkStmts(fn.Body.List, st)
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
}

func (c *checker) walkStmts(stmts []ast.Stmt, st *lockState) {
	for _, s := range stmts {
		c.stmt(s, st)
	}
}

func (c *checker) stmt(stmt ast.Stmt, st *lockState) {
	switch s := stmt.(type) {
	case nil:
		return
	case *ast.BlockStmt:
		c.walkStmts(s.List, st)
	case *ast.ExprStmt:
		if c.lockOp(s.X, st) {
			return
		}
		c.scan(s.X, st)
	case *ast.DeferStmt:
		// defer x.mu.Unlock() keeps the lock held to function end, which
		// the linear walk already models by not removing it. Other
		// deferred work runs at return; treat it like held-region code
		// when a lock is still held here (conservative but right for
		// the lock-then-defer-unlock idiom).
		if kind, _, isUnlock := c.classify(s.Call); isUnlock && kind != lockNone {
			return
		}
		c.scan(s.Call, st)
	case *ast.GoStmt:
		// A spawned goroutine does not run under the caller's locks.
		return
	case *ast.SendStmt:
		if st.shardHeld() {
			c.pass.Reportf("lockorder", s.Arrow,
				"blocking channel send while shard lock %s is held; buffer the value and send after unlock", st.heldNames())
		}
		c.scan(s.Chan, st)
		c.scan(s.Value, st)
	case *ast.IfStmt:
		c.stmt(s.Init, st)
		c.scan(s.Cond, st)
		bodySt := st.copy()
		c.walkStmts(s.Body.List, bodySt)
		var outcomes []*lockState
		if !terminates(s.Body) {
			outcomes = append(outcomes, bodySt)
		}
		if s.Else != nil {
			elseSt := st.copy()
			c.stmt(s.Else, elseSt)
			if !stmtTerminates(s.Else) {
				outcomes = append(outcomes, elseSt)
			}
		} else {
			outcomes = append(outcomes, st.copy())
		}
		if len(outcomes) > 0 {
			*st = *intersect(outcomes)
		}
	case *ast.ForStmt:
		c.stmt(s.Init, st)
		c.scan(s.Cond, st)
		body := st.copy()
		c.walkStmts(s.Body.List, body)
		c.stmt(s.Post, body)
	case *ast.RangeStmt:
		c.scan(s.X, st)
		body := st.copy()
		c.walkStmts(s.Body.List, body)
	case *ast.SwitchStmt:
		c.stmt(s.Init, st)
		c.scan(s.Tag, st)
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				sub := st.copy()
				c.walkStmts(cc.Body, sub)
			}
		}
	case *ast.TypeSwitchStmt:
		c.stmt(s.Init, st)
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				sub := st.copy()
				c.walkStmts(cc.Body, sub)
			}
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		for _, clause := range s.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok {
				continue
			}
			sub := st.copy()
			if cc.Comm != nil {
				if send, ok := cc.Comm.(*ast.SendStmt); ok {
					// A select with a default never blocks; without one
					// it blocks exactly like a bare send.
					if !hasDefault && sub.shardHeld() {
						c.pass.Reportf("lockorder", send.Arrow,
							"potentially blocking select send while shard lock %s is held; add a default case or move the send after unlock", sub.heldNames())
					}
				}
			}
			c.walkStmts(cc.Body, sub)
		}
	case *ast.LabeledStmt:
		c.stmt(s.Stmt, st)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.scan(e, st)
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			c.scan(e, st)
		}
		for _, e := range s.Lhs {
			c.scan(e, st)
		}
	case *ast.DeclStmt, *ast.IncDecStmt:
		c.scan(s, st)
	}
}

type lockKind int

const (
	lockNone lockKind = iota
	lockShard
	lockPlain
)

// classify recognizes method calls on tracked mutex types, returning
// the mutex kind, the receiver's expression text, and whether the
// call releases (vs acquires).
func (c *checker) classify(call *ast.CallExpr) (kind lockKind, key string, unlock bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockNone, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock", "Unlock", "RUnlock":
	default:
		return lockNone, "", false
	}
	recv := c.recvType(sel)
	if recv == nil {
		return lockNone, "", false
	}
	named, ok := deref(recv).(*types.Named)
	if !ok {
		return lockNone, "", false
	}
	unlock = sel.Sel.Name == "Unlock" || sel.Sel.Name == "RUnlock"
	obj := named.Obj()
	switch {
	case obj.Name() == "ContendedMutex":
		return lockShard, types.ExprString(sel.X), unlock
	case obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex"):
		return lockPlain, types.ExprString(sel.X), unlock
	}
	return lockNone, "", false
}

func (c *checker) recvType(sel *ast.SelectorExpr) types.Type {
	if s, ok := c.pass.TypesInfo.Selections[sel]; ok {
		return s.Recv()
	}
	if tv, ok := c.pass.TypesInfo.Types[sel.X]; ok {
		return tv.Type
	}
	return nil
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// lockOp applies a lock/unlock statement to the state, reporting
// ordering violations at acquisition. Reports go through the
// //simfs:allow lockorder escape hatch, which is how the one
// sanctioned nesting (downstream→upstream pipeline order) is blessed.
func (c *checker) lockOp(e ast.Expr, st *lockState) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	kind, key, unlock := c.classify(call)
	if kind == lockNone {
		return false
	}
	switch kind {
	case lockShard:
		if unlock {
			if st.shard[key] > 0 {
				st.shard[key]--
				if st.shard[key] == 0 {
					delete(st.shard, key)
				}
			}
			return true
		}
		if len(st.plain) > 0 {
			c.pass.Reportf("lockorder", call.Pos(),
				"shard lock %s acquired while a plain mutex is held; the documented order is shard locks first, then ctxMu/simMu", key)
		}
		if st.shardHeld() {
			c.pass.Reportf("lockorder", call.Pos(),
				"nested shard lock %s while holding %s; only downstream→upstream pipeline order is sanctioned — annotate //simfs:allow lockorder <why this nesting is ordered> if so",
				key, st.heldNames())
		}
		st.shard[key]++
	case lockPlain:
		if unlock {
			if st.plain[key] > 0 {
				st.plain[key]--
				if st.plain[key] == 0 {
					delete(st.plain, key)
				}
			}
			return true
		}
		st.plain[key]++
	}
	return true
}

// scan walks an expression or small statement for calls that can
// block on other goroutines while a shard lock is held. Function
// literals are skipped: defining a closure under a lock is fine.
func (c *checker) scan(n ast.Node, st *lockState) {
	if n == nil || !st.shardHeld() {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Publish" || sel.Sel.Name == "Deliver") {
				if named, ok := deref(c.recvTypeOf(sel)).(*types.Named); ok && named.Obj().Name() == "Hub" {
					c.pass.Reportf("lockorder", x.Pos(),
						"notify hub %s while shard lock %s is held; take the waiters under the lock and deliver after unlock (callbacks may re-enter the shard)",
						strings.ToLower(sel.Sel.Name), st.heldNames())
				}
			}
		}
		return true
	})
}

func (c *checker) recvTypeOf(sel *ast.SelectorExpr) types.Type {
	t := c.recvType(sel)
	if t == nil {
		return types.Typ[types.Invalid]
	}
	return t
}

// terminates reports whether a block always transfers control away
// (return, branch, panic), so its lock-state cannot flow to the code
// after the enclosing statement.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	return stmtTerminates(b.List[len(b.List)-1])
}

func stmtTerminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.BlockStmt:
		return terminates(s)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.IfStmt:
		return terminates(s.Body) && s.Else != nil && stmtTerminates(s.Else)
	}
	return false
}

// intersect keeps only the locks held in every fall-through outcome,
// so a conditional unlock does not leak a phantom held lock.
func intersect(states []*lockState) *lockState {
	out := states[0].copy()
	for _, s := range states[1:] {
		for k, v := range out.shard {
			if s.shard[k] < v {
				if s.shard[k] == 0 {
					delete(out.shard, k)
				} else {
					out.shard[k] = s.shard[k]
				}
			}
		}
		for k, v := range out.plain {
			if s.plain[k] < v {
				if s.plain[k] == 0 {
					delete(out.plain, k)
				} else {
					out.plain[k] = s.plain[k]
				}
			}
		}
	}
	return out
}
