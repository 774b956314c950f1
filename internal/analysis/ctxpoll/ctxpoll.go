// Package ctxpoll enforces the engine's bounded-cancellation invariant:
// in any function that receives a context.Context, every loop that can
// run an unbounded number of iterations must consult the context — the
// per-chunk `ctx.Err()` poll of the streaming repair pipeline, or a
// `rows&mask == 0 → ctx.Err()` poll in a row loop — so a cancelled
// request stops within a bounded amount of work instead of draining an
// arbitrarily long input first.
//
// The analyzer examines each function (declaration or literal) with a
// context.Context in scope and flags condition-style `for` loops — `for
// {}`, `for cond {}`, and three-clause loops whose bound is not a simple
// counted comparison — whose body never references the context. A loop
// that mentions the context anywhere in its body (ctx.Err(), ctx.Done(),
// a select on ctx.Done(), or passing ctx to a callee that takes over
// cancellation) is considered polled.
//
// Counted loops (`for i := 0; i < n; i++`) and `range` loops over slices,
// arrays and maps are bounded by their operand and exempt; `range` over a
// channel is exempt because it terminates by channel close, the pipeline
// convention — cancellation there is owed by whichever loop feeds the
// channel.
package ctxpoll

import (
	"go/ast"
	"go/token"
	"go/types"

	"fixrule/internal/analysis"
)

// Analyzer is the ctxpoll check.
var Analyzer = &analysis.Analyzer{
	Name:  "ctxpoll",
	Doc:   "unbounded loops in context-carrying functions must poll the context",
	Codes: []string{"unpolled-loop"},
	Run:   run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Check the declaration and every function literal inside it:
			// a goroutine body that captures ctx owes the same polling.
			checkFuncBody(pass, fd.Type, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkFuncBody(pass, lit.Type, lit.Body)
				}
				return true
			})
		}
	}
	return nil
}

// checkFuncBody analyses one function's own loops. ctxObjs is every
// context.Context-typed variable visible to the body — parameters here,
// plus any context variable the body references at all (captures).
func checkFuncBody(pass *analysis.Pass, ft *ast.FuncType, body *ast.BlockStmt) {
	ctxObjs := contextObjects(pass.TypesInfo, ft, body)
	if len(ctxObjs) == 0 {
		return
	}
	// Walk statements but do not descend into nested function literals:
	// each literal is analysed as its own function with its own loops.
	walkSameFunc(body, func(n ast.Node) {
		loop, ok := n.(*ast.ForStmt)
		if !ok {
			return
		}
		if countedLoop(pass.TypesInfo, loop) {
			return
		}
		if referencesAny(pass.TypesInfo, loop.Body, ctxObjs) {
			return
		}
		pass.Reportf(loop.For, "unpolled-loop",
			"unbounded loop in a context-carrying function never polls the context; check ctx.Err() on a bounded mask (see streamChunks in internal/repair/pipeline.go)")
	})
}

// contextObjects collects the context.Context variables the body can see:
// declared parameters and any context-typed object it references.
func contextObjects(info *types.Info, ft *ast.FuncType, body *ast.BlockStmt) map[types.Object]bool {
	objs := map[types.Object]bool{}
	if ft.Params != nil {
		for _, field := range ft.Params.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil && analysis.IsContextType(obj.Type()) {
					objs[obj] = true
				}
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := info.Uses[id]; obj != nil && analysis.IsContextType(obj.Type()) {
			if _, isVar := obj.(*types.Var); isVar {
				objs[obj] = true
			}
		}
		return true
	})
	return objs
}

// walkSameFunc visits every node of the body except nested function
// literals.
func walkSameFunc(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// countedLoop recognises the classic bounded form: a three-clause for
// whose condition compares a loop-local integer against a bound with
// < / <= / > / >=, with an increment/decrement post statement. Everything
// else — no condition, boolean conditions like `for readErr == nil`,
// reader conditions like `for sc.Next()` — is treated as unbounded.
func countedLoop(info *types.Info, loop *ast.ForStmt) bool {
	if loop.Cond == nil {
		return false
	}
	cmp, ok := ast.Unparen(loop.Cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch cmp.Op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ:
	default:
		return false
	}
	if loop.Post == nil {
		return false
	}
	switch post := loop.Post.(type) {
	case *ast.IncDecStmt:
		return true
	case *ast.AssignStmt:
		return post.Tok == token.ADD_ASSIGN || post.Tok == token.SUB_ASSIGN
	}
	return false
}

// referencesAny reports whether the block mentions any of the given
// objects, at any depth including nested literals (a poll delegated to an
// inner closure still bounds the loop's work between polls).
func referencesAny(info *types.Info, body *ast.BlockStmt, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && objs[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}
