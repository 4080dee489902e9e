package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BoundedAlloc mechanizes PR 4's decoder-hardening rule: a count read
// off the wire as a varint is hostile until compared against a cap, and
// must never size an allocation directly. The schedio decoder's
// maxRoundCalls/maxIndexRounds bounds are the canonical instance; this
// analyzer makes the same discipline automatic for every future decoder.
//
// Mechanics (intra-function): a variable assigned from a varint decode
// (a call whose name is uvarint, Uvarint, ReadUvarint, Varint or
// ReadVarint — this repo's canonical decoder method and the
// encoding/binary entry points — or bufUvarint, schedio's buffered
// fast-path decode) is tainted, as is anything assigned
// from a tainted value (including conversions like int(v)). A tainted
// variable that is compared against a constant — a named cap like
// maxRoundCalls, or a literal — anywhere in the function counts as
// bounded. Sizing a make (length or capacity argument) from a tainted,
// never-compared variable is a violation, as is sizing a slices.Grow
// (its count argument) that way. Growth via append as bytes are
// actually read is the sanctioned alternative and is never flagged.
var BoundedAlloc = &Analyzer{
	Name: "boundedalloc",
	Doc:  "forbid make sizes data-flowing from a varint decode without a comparison against a cap",
	Run:  runBoundedAlloc,
}

// varintNames are the decode entry points whose results are tainted.
var varintNames = map[string]bool{
	"uvarint":     true, // schedio's canonical-form decoder method
	"bufUvarint":  true, // schedio's buffered fast-path decode (decodeCalls)
	"Uvarint":     true, // encoding/binary
	"ReadUvarint": true,
	"Varint":      true,
	"ReadVarint":  true,
}

func runBoundedAlloc(pass *Pass) {
	p := pass.Pkg
	p.eachFuncBody(func(decl *ast.FuncDecl) {
		checkBoundedAlloc(pass, decl.Body)
	})
}

func checkBoundedAlloc(pass *Pass, body *ast.BlockStmt) {
	p := pass.Pkg

	// Pass 1: taint. Seed with direct varint-call results, then
	// propagate through assignments and conversions until fixed point
	// (the function is walked repeatedly; bodies are small).
	tainted := map[types.Object]bool{}
	isVarintCall := func(call *ast.CallExpr) bool {
		fn := p.callee(call)
		return fn != nil && varintNames[fn.Name()]
	}
	// taintedExpr reports whether e's value derives from a tainted
	// object or a varint call: identifiers, conversions, parens, and
	// arithmetic over them.
	var taintedExpr func(e ast.Expr) bool
	taintedExpr = func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.Ident:
			return tainted[p.objectOf(e)]
		case *ast.ParenExpr:
			return taintedExpr(e.X)
		case *ast.CallExpr:
			if isVarintCall(e) {
				return true
			}
			// A conversion like int(v) carries taint through.
			if tv, ok := p.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
				return taintedExpr(e.Args[0])
			}
			return false
		case *ast.BinaryExpr:
			return taintedExpr(e.X) || taintedExpr(e.Y)
		case *ast.UnaryExpr:
			return taintedExpr(e.X)
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			// Multi-value form v, err := call(...): taint every LHS when
			// the one RHS is a tainted call; one-to-one forms propagate
			// per position.
			taintLHS := func(i int) {
				if i >= len(assign.Lhs) {
					return
				}
				if obj := p.objectOf(assign.Lhs[i]); obj != nil && !tainted[obj] {
					// The error sibling of v, err := uvarint() is not a
					// count; only the value position taints.
					if named, ok := obj.Type().(*types.Named); ok && named.Obj().Name() == "error" {
						return
					}
					tainted[obj] = true
					changed = true
				}
			}
			if len(assign.Rhs) == 1 && len(assign.Lhs) > 1 {
				if taintedExpr(assign.Rhs[0]) {
					for i := range assign.Lhs {
						taintLHS(i)
					}
				}
				return true
			}
			for i, rhs := range assign.Rhs {
				if taintedExpr(rhs) {
					taintLHS(i)
				}
			}
			return true
		})
	}
	if len(tainted) == 0 {
		return
	}

	// Pass 2: bounding. A comparison of a tainted object against a
	// constant anywhere in the function marks it bounded.
	bounded := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
		default:
			return true
		}
		for _, pair := range [2][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}} {
			if obj := p.objectOf(pair[0]); obj != nil && tainted[obj] && p.isConstExpr(pair[1]) {
				bounded[obj] = true
			}
		}
		return true
	})

	// Pass 3: flag make and slices.Grow sizes fed by tainted, unbounded
	// objects.
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		isMake := ok && id.Name == "make" && p.Info.Uses[id] == types.Universe.Lookup("make")
		if !isMake && !isFunc(p.callee(call), "slices", "Grow") {
			return true
		}
		// Both take the type (make) or the slice (Grow) first, sizes after.
		for _, arg := range call.Args[1:] {
			flagUnboundedIdents(pass, arg, tainted, bounded)
		}
		return true
	})
}

// flagUnboundedIdents reports every identifier under e that is tainted
// by a varint decode and never compared against a cap.
func flagUnboundedIdents(pass *Pass, e ast.Expr, tainted, bounded map[types.Object]bool) {
	p := pass.Pkg
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := p.Info.Uses[id]
		if obj != nil && tainted[obj] && !bounded[obj] {
			pass.Reportf(id.Pos(), "allocation sized from varint-decoded %q without a comparison against a cap constant (grow storage as bytes are read, or bound it like maxRoundCalls; docs/LINTING.md#boundedalloc)", id.Name)
		}
		return true
	})
}
