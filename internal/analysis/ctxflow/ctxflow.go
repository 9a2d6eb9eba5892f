// Package ctxflow enforces the facade's cancellation convention: library
// code never synthesises its own context, and exported APIs that can
// block take the caller's context.Context so the caller can cancel them.
package ctxflow

import (
	"go/ast"
	"go/types"

	"apisense/internal/analysis"
)

// Analyzer flags context.Background/TODO in library code and exported
// blocking APIs with no cancellation path.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "Library code must not call context.Background or context.TODO — accept " +
		"the caller's context. Exported APIs that block (channel ops, select, " +
		"WaitGroup.Wait, time.Sleep, net/http round-trips) must take a " +
		"context.Context. A deliberate exception carries a " +
		"//lint:allow ctxflow <reason>.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if pkg, name, ok := analysis.PkgFunc(pass.TypesInfo, call); ok && pkg == "context" && (name == "Background" || name == "TODO") {
					pass.Reportf(call.Pos(),
						"library code must not call context.%s; accept the caller's context (annotate deliberate back-compat wrappers with //lint:allow ctxflow)", name)
				}
				return true
			})
			checkBlockingAPI(pass, fd)
		}
	}
	return nil
}

// checkBlockingAPI flags an exported, context-less function whose body
// directly blocks.
func checkBlockingAPI(pass *analysis.Pass, fd *ast.FuncDecl) {
	if !fd.Name.IsExported() || hasContextParam(pass, fd) {
		return
	}
	if op := blockingOp(pass, fd.Body); op != "" {
		pass.Reportf(fd.Name.Pos(),
			"exported API %s blocks (%s) but offers no cancellation; accept a context.Context", fd.Name.Name, op)
	}
}

// hasContextParam reports whether any parameter is a context.Context.
func hasContextParam(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	for _, field := range fd.Type.Params.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		if !ok {
			continue
		}
		if named, ok := tv.Type.(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context" {
				return true
			}
		}
	}
	return false
}

// blockingOp returns a description of the first directly blocking
// operation in body, or "" if there is none. Mutex operations are not
// counted: critical sections are expected to be short and are lockfsync's
// concern, not cancellation's.
func blockingOp(pass *analysis.Pass, body *ast.BlockStmt) string {
	var found string
	ast.Inspect(body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			// A closure's body runs when the closure does, typically on
			// another goroutine; it does not block this API directly.
			return false
		case *ast.SendStmt:
			found = "channel send"
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				found = "channel receive"
			}
		case *ast.SelectStmt:
			found = "select"
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = "range over channel"
				}
			}
		case *ast.CallExpr:
			if pkg, name, ok := analysis.PkgFunc(pass.TypesInfo, n); ok {
				if pkg == "time" && name == "Sleep" {
					found = "time.Sleep"
				}
				if pkg == "net/http" && (name == "Get" || name == "Post" || name == "PostForm" || name == "Head") {
					found = "net/http." + name
				}
			}
			switch analysis.MethodFullName(pass.TypesInfo, n) {
			case "(*sync.WaitGroup).Wait":
				found = "WaitGroup.Wait"
			case "(*net/http.Client).Do", "(*net/http.Client).Get", "(*net/http.Client).Post", "(*net/http.Client).Head":
				found = "http.Client round-trip"
			}
		}
		return found == ""
	})
	return found
}
