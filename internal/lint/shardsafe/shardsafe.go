// Package shardsafe implements the ubalint shard-safety prover: a
// worker-pool task body declares which parameter owns its shard of
// mutable state,
//
//	//lint:shardsafe owns=sh <reason>
//
// and the pass proves that every write the body performs lands in
// memory reachable only through that parameter. This is the static
// half of the byte-identical-transcript contract: the round pipeline
// may execute shard tasks in any order on any worker, and the result
// is indistinguishable from the inline cap-1 run precisely because no
// task writes state another task (or the merge phase) reads before
// the barrier.
//
// Write classification, per lvalue root:
//
//   - a plain local is worker-private: always fine;
//   - the owned parameter, or memory reachable from it (taint), is the
//     shard: fine;
//   - a local assigned shared[i] where i is a loop variable bounded by
//     the owned parameter on both ends (for i := sh.lo; i < sh.hi) is
//     blessed — the shard ranges partition the shared slice, so the
//     element is owned for the task's duration;
//   - package-level state, other parameters (including the receiver),
//     and locals that may alias them are violations.
//
// Calls fold the summary pass's facts: a callee that writes
// package-level state is a violation outright, and a callee's Mutates
// slots re-classify the corresponding argument (or receiver) as a
// write. Goroutine launches and channel sends are violations — the
// task must stay single-threaded and synchronization-free.
//
// Trust boundaries (deliberate, documented in DESIGN.md §8.8): calls
// through function values and interface methods are assumed
// effect-free (the sharedstate pass and the -race determinism matrix
// cover Process.Step bodies), and standard-library callees export no
// facts by design.
package shardsafe

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"uba/internal/lint/lintutil"
	"uba/internal/lint/summary"

	"golang.org/x/tools/go/analysis"
)

// Analyzer is the shard-safety proving pass.
var Analyzer = &analysis.Analyzer{
	Name:     "shardsafe",
	Doc:      "prove //lint:shardsafe task bodies write only state owned by the declared shard parameter",
	Run:      run,
	Requires: []*analysis.Analyzer{summary.Analyzer},
}

func run(pass *analysis.Pass) (any, error) {
	res := pass.ResultOf[summary.Analyzer].(*summary.Result)
	sup := lintutil.NewSuppressor(pass, "shardsafe")
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				args, ok := strings.CutPrefix(c.Text, "//lint:shardsafe")
				if !ok {
					continue
				}
				check(pass, res, sup, fd, args)
			}
		}
	}
	sup.Done()
	return nil, nil
}

// check proves one annotated task body. Directive shape errors anchor
// at the function name; write violations anchor at the offending node.
func check(pass *analysis.Pass, res *summary.Result, sup *lintutil.Suppressor, fd *ast.FuncDecl, args string) {
	name := fd.Name.Name
	fields := strings.Fields(args)
	if len(fields) < 2 || !strings.HasPrefix(fields[0], "owns=") {
		sup.Reportf(fd.Name.Pos(), "malformed //lint:shardsafe directive on %s: want owns=<param> <reason>", name)
		return
	}
	ownedName := strings.TrimPrefix(fields[0], "owns=")

	taint, slots := res.Taint(fd)
	owned, ownedSlot := findParam(pass, fd, slots, ownedName)
	if owned == nil {
		sup.Reportf(fd.Name.Pos(), "//lint:shardsafe directive on %s: owns=%s does not name a reference-carrying parameter", name, ownedName)
		return
	}

	c := &checker{
		pass:          pass,
		res:           res,
		sup:           sup,
		fn:            name,
		owned:         owned,
		ownedBit:      uint32(1) << uint(ownedSlot),
		taint:         taint,
		slots:         slots,
		globalAliases: lintutil.GlobalAliases(pass.TypesInfo, fd.Body),
	}
	c.bless(fd.Body)
	c.walk(fd.Body)
}

// findParam locates the named, reference-carrying parameter (or
// receiver) among the tracked slots.
func findParam(pass *analysis.Pass, fd *ast.FuncDecl, slots map[types.Object]int, name string) (types.Object, int) {
	lists := []*ast.FieldList{fd.Recv, fd.Type.Params}
	for _, fl := range lists {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			for _, id := range field.Names {
				if id.Name != name {
					continue
				}
				obj := pass.TypesInfo.Defs[id]
				if slot, ok := slots[obj]; ok {
					return obj, slot
				}
				return nil, 0
			}
		}
	}
	return nil, 0
}

// checker carries the per-directive proof state.
type checker struct {
	pass          *analysis.Pass
	res           *summary.Result
	sup           *lintutil.Suppressor
	fn            string
	owned         types.Object
	ownedBit      uint32
	taint         map[types.Object]uint32
	slots         map[types.Object]int
	globalAliases map[types.Object]bool
	// blessed holds locals assigned shared[i] under a shard-bounded
	// index; tarnished removes the blessing from any object that is
	// also assigned from an unblessed source.
	blessed   map[types.Object]bool
	tarnished map[types.Object]bool
}

// bless collects the shard-element locals: first the loop variables
// bounded by the owned parameter on both ends (for i := sh.lo;
// i < sh.hi), then every local assigned an index expression (or its
// address) whose index involves a bounded variable or the owned
// parameter itself. An object assigned anything else anywhere in the
// body is tarnished — a reassigned alias proves nothing.
func (c *checker) bless(body *ast.BlockStmt) {
	c.blessed = make(map[types.Object]bool)
	c.tarnished = make(map[types.Object]bool)

	bounded := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		fs, ok := n.(*ast.ForStmt)
		if !ok || fs.Init == nil || fs.Cond == nil {
			return true
		}
		if !c.mentionsOwned(fs.Init) || !c.mentionsOwned(fs.Cond) {
			return true
		}
		init, ok := fs.Init.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range init.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := c.pass.TypesInfo.ObjectOf(id); obj != nil {
					bounded[obj] = true
				}
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := c.pass.TypesInfo.ObjectOf(id)
			if obj == nil {
				continue
			}
			if c.shardElement(as.Rhs[i], bounded) {
				c.blessed[obj] = true
			} else {
				c.tarnished[obj] = true
			}
		}
		return true
	})
}

// shardElement reports whether e is shared[i] or &shared[i] with a
// shard-bounded index.
func (c *checker) shardElement(e ast.Expr, bounded map[types.Object]bool) bool {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op.String() == "&" {
		e = u.X
	}
	ix, ok := e.(*ast.IndexExpr)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(ix.Index, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			obj := c.pass.TypesInfo.ObjectOf(id)
			if obj != nil && (bounded[obj] || obj == c.owned) {
				found = true
			}
		}
		return true
	})
	return found
}

// mentionsOwned reports whether the owned parameter appears anywhere
// under n.
func (c *checker) mentionsOwned(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && c.pass.TypesInfo.ObjectOf(id) == c.owned {
			found = true
		}
		return true
	})
	return found
}

// walk classifies every write in the task body.
func (c *checker) walk(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				c.classify(lhs)
			}
		case *ast.IncDecStmt:
			c.classify(n.X)
		case *ast.RangeStmt:
			// A range clause assigns its iteration variables; with the
			// = form they can be arbitrary lvalues.
			if n.Key != nil {
				c.classify(n.Key)
			}
			if n.Value != nil {
				c.classify(n.Value)
			}
		case *ast.GoStmt:
			c.sup.Reportf(n.Pos(), "%s starts a goroutine: the shard task must stay single-threaded", c.fn)
		case *ast.SendStmt:
			c.sup.Reportf(n.Pos(), "%s sends on a channel: the shard task must stay synchronization-free", c.fn)
		case *ast.CallExpr:
			c.call(n)
		}
		return true
	})
}

// classify checks one lvalue. Plain locals are worker-private; any
// other root must be the owned parameter, a blessed shard element, or
// memory tainted by nothing beyond the owned slot.
func (c *checker) classify(lhs ast.Expr) {
	if id, ok := lhs.(*ast.Ident); ok {
		obj := c.pass.TypesInfo.ObjectOf(id)
		if obj != nil && (packageLevel(obj) || c.globalAliases[obj]) {
			c.sup.Reportf(lhs.Pos(), "%s writes package-level state through %s", c.fn, id.Name)
		}
		return
	}
	c.through(lhs, "writes")
}

// through checks a write through the memory e references (an lvalue
// chain, a mutated call argument, or a cleared container). verb names
// the action for the diagnostic ("writes", "mutates (via copy)").
func (c *checker) through(e ast.Expr, verb string) {
	root := lintutil.RootIdent(e)
	if root == nil {
		c.sup.Reportf(e.Pos(), "%s %s through a call result, which the shard-safety proof cannot track", c.fn, verb)
		return
	}
	obj := c.pass.TypesInfo.ObjectOf(root)
	if obj == nil || obj == c.owned {
		return
	}
	if c.blessed[obj] && !c.tarnished[obj] {
		return
	}
	switch {
	case packageLevel(obj) || c.globalAliases[obj]:
		c.sup.Reportf(e.Pos(), "%s %s package-level state through %s", c.fn, verb, root.Name)
	case c.isParam(obj):
		c.sup.Reportf(e.Pos(), "%s %s through parameter %s, which is not the owned shard", c.fn, verb, root.Name)
	case c.taint[obj]&^c.ownedBit != 0:
		c.sup.Reportf(e.Pos(), "%s %s through %s, which may alias state outside the owned shard", c.fn, verb, root.Name)
	}
}

// call folds the callee's summary facts: global writers are
// violations, and each mutated slot re-classifies its argument.
func (c *checker) call(call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "clear", "delete", "copy":
				c.through(call.Args[0], fmt.Sprintf("mutates (via %s)", b.Name()))
			}
			return
		}
	}
	callee := summary.Callee(c.pass.TypesInfo, call)
	if callee == nil {
		return // function values and interface methods: trust boundary
	}
	s := c.res.Of(callee)
	if s.WritesGlobal {
		c.sup.Reportf(call.Pos(), "%s calls %s, which writes package-level state", c.fn, callee.Name())
		return
	}
	if s.Mutates == 0 {
		return
	}
	verb := fmt.Sprintf("mutates (via %s)", callee.Name())
	if s.MutatesAt(summary.RecvIndex) {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
				c.through(sel.X, verb)
			}
		}
	}
	for i, arg := range call.Args {
		if slot, ok := summary.ArgIndex(callee, i); ok && s.MutatesAt(slot) {
			c.through(arg, verb)
		}
	}
}

// isParam reports whether obj is a tracked parameter other than the
// owned one (the owned case is handled before this is consulted).
func (c *checker) isParam(obj types.Object) bool {
	_, ok := c.slots[obj]
	return ok
}

// packageLevel reports whether obj is a package-level variable.
func packageLevel(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
}
