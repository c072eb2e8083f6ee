// The maporder analyzer: Go map iteration order is deliberately
// randomized, so a map-range loop that feeds an ordered sink — an
// append that reaches a report, a writer, a channel — produces output
// that differs run to run. In the mining packages that breaks the
// bit-identical-results contract (reports, checkpoints and resultio
// files are diffed byte-for-byte by the resume and failover tests).
//
// A loop is clean when its appended-to slice is sorted afterwards in
// the same function (the collect-keys-then-sort idiom), or when the
// author vouches for order-independence with //gpalint:orderok.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags map-range loops in mining packages whose body feeds
// an order-sensitive sink without a subsequent sort.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "forbid map-range loops that append to unsorted slices, send to channels, " +
		"or write output in mining packages — iteration order is randomized",
	Run: runMapOrder,
}

// orderedSinkWriters match io/fmt-style emission calls whose byte order
// is the output order.
var orderedSinkWriters = map[string]bool{
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true,
}

// MapOrderPkgs extends the determinism set with the packages that
// assemble result sets, reports and persisted artifacts — everywhere a
// randomized iteration order could reach bytes that get diffed.
var MapOrderPkgs = map[string]bool{
	"gpapriori": true, // public root package: report assembly
	"resultio":  true,
	"rules":     true,
	"jobs":      true,
	"vertical":  true,
	"dataset":   true,
	"fpgrowth":  true,
	"eclat":     true,
}

func runMapOrder(pass *Pass) error {
	if !DeterminismPkgs[PkgBase(pass.PkgPath)] && !MapOrderPkgs[PkgBase(pass.PkgPath)] {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkMapRanges(pass, file, fd)
		}
	}
	return nil
}

func checkMapRanges(pass *Pass, file *ast.File, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if HasOrderOK(pass.Fset, []*ast.File{file}, rng.Pos()) {
			return true
		}
		for _, sink := range orderedSinks(pass, rng.Body) {
			if sink.appendee != nil && sortedLater(pass, fd.Body, sink.appendee) {
				continue
			}
			pass.Reportf(sink.pos,
				"map iteration order reaches an ordered sink (%s); sort before emitting or mark the loop //gpalint:orderok",
				sink.kind)
		}
		return true
	})
}

type sinkUse struct {
	pos      token.Pos
	kind     string
	appendee types.Object // non-nil for append sinks: the destination slice
}

func orderedSinks(pass *Pass, body *ast.BlockStmt) []sinkUse {
	var out []sinkUse
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			out = append(out, sinkUse{pos: n.Pos(), kind: "channel send"})
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && isBuiltinAppend(pass, id) {
				// Builtin append: record the destination object when it
				// is a plain identifier (the sort-later check needs it).
				var dest types.Object
				if len(n.Args) > 0 {
					if did, ok := ast.Unparen(n.Args[0]).(*ast.Ident); ok {
						dest = pass.ObjectOf(did)
					}
				}
				out = append(out, sinkUse{pos: n.Pos(), kind: "append", appendee: dest})
				return true
			}
			if fn := CalleeFunc(pass.TypesInfo, n); fn != nil && orderedSinkWriters[fn.Name()] {
				pkg := ""
				if fn.Pkg() != nil {
					pkg = fn.Pkg().Path()
				}
				// fmt's Sprint family formats to a string (order-safe in
				// itself); only writer-backed emission counts.
				if pkg == "fmt" || isWriterMethod(fn) {
					out = append(out, sinkUse{pos: n.Pos(), kind: fn.Name()})
				}
			}
		}
		return true
	})
	return out
}

// isBuiltinAppend reports whether id resolves to the predeclared
// append builtin (not a shadowing local).
func isBuiltinAppend(pass *Pass, id *ast.Ident) bool {
	if id.Name != "append" {
		return false
	}
	_, isBuiltin := pass.ObjectOf(id).(*types.Builtin)
	return isBuiltin
}

// isWriterMethod reports whether fn is a method — Write, WriteString,
// Encode, … on a writer/builder/encoder — as opposed to a package-level
// function that happens to share the name.
func isWriterMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// sortedLater reports whether dest is passed to a sort.* or slices.Sort*
// call anywhere in the function body after collection — the sanctioned
// collect-then-sort idiom.
func sortedLater(pass *Pass, body *ast.BlockStmt, dest types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		fn := CalleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && pass.ObjectOf(id) == dest {
				found = true
			}
		}
		return !found
	})
	return found
}
