package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	pos     token.Position
	endLine int      // last line the directive covers (>= pos.Line)
	checks  []string // analyzer names, or "all"
	reason  string
}

// matches reports whether the directive suppresses the given check.
func (d *ignoreDirective) matches(check string) bool {
	for _, c := range d.checks {
		if c == check || c == "all" {
			return true
		}
	}
	return false
}

// parseIgnoreDirectives scans a package's comments for
// //lint:ignore directives. The directive grammar is
//
//	//lint:ignore <check>[,<check>...] <reason>
//
// where <reason> is mandatory prose explaining why the finding is
// acceptable. A directive suppresses matching diagnostics on its own
// line (trailing comment) and on the statement starting on its line or
// the immediately following line — anchored anywhere inside it, so a
// call spread over several lines is covered by one directive above it.
// Malformed directives are themselves reported as diagnostics so they
// cannot silently fail to suppress.
func parseIgnoreDirectives(pkgs []*Package) (directives []ignoreDirective, malformed []Diagnostic) {
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "//lint:ignore")
					if !ok {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						malformed = append(malformed, Diagnostic{
							Check:   "lint",
							Pos:     pos,
							Message: "malformed //lint:ignore directive: want //lint:ignore <check> <reason>",
						})
						continue
					}
					directives = append(directives, ignoreDirective{
						pos:     pos,
						endLine: directiveEndLine(p, f, pos.Line),
						checks:  strings.Split(fields[0], ","),
						reason:  strings.Join(fields[1:], " "),
					})
				}
			}
		}
	}
	return directives, malformed
}

// directiveEndLine computes the last source line a directive at the
// given line covers: by default the next line, extended to the full
// extent of the outermost statement or declaration spec starting on the
// directive's line (trailing comment) or the line below it. Compound
// statements (if/for/switch/select) only contribute their header up to
// the opening brace — a directive above an if must not blanket the
// whole body.
func directiveEndLine(p *Package, f *ast.File, line int) int {
	end := line + 1
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		switch n.(type) {
		case ast.Stmt, *ast.ValueSpec, *ast.ImportSpec, *ast.TypeSpec:
		default:
			return true
		}
		stop := n.End()
		switch s := n.(type) {
		case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause, *ast.LabeledStmt:
			return true // structural; descend to the real statements
		case *ast.IfStmt:
			stop = s.Body.Lbrace
		case *ast.ForStmt:
			stop = s.Body.Lbrace
		case *ast.RangeStmt:
			stop = s.Body.Lbrace
		case *ast.SwitchStmt:
			stop = s.Body.Lbrace
		case *ast.TypeSwitchStmt:
			stop = s.Body.Lbrace
		case *ast.SelectStmt:
			stop = s.Body.Lbrace
		}
		start := p.Fset.Position(n.Pos()).Line
		if start != line && start != line+1 {
			return true // an inner statement may still start on the line
		}
		if e := p.Fset.Position(stop).Line; e > end {
			end = e
		}
		return false // outermost match wins
	})
	return end
}

// applyIgnores splits diagnostics into kept and suppressed according
// to the directives. A well-formed directive that suppressed nothing is
// itself kept as a "lint" diagnostic, as a malformed one is: a stale
// suppression would hide the next real finding on its lines.
func applyIgnores(diags []Diagnostic, directives []ignoreDirective) (kept, suppressed []Diagnostic) {
	used := make([]bool, len(directives))
	for _, d := range diags {
		ignored := false
		for i := range directives {
			dir := &directives[i]
			if dir.pos.Filename != d.Pos.Filename || !dir.matches(d.Check) {
				continue
			}
			if d.Pos.Line >= dir.pos.Line && d.Pos.Line <= dir.endLine {
				ignored, used[i] = true, true
			}
		}
		if ignored {
			suppressed = append(suppressed, d)
		} else {
			kept = append(kept, d)
		}
	}
	for i, dir := range directives {
		if !used[i] {
			kept = append(kept, Diagnostic{
				Check:   "lint",
				Pos:     dir.pos,
				Message: "//lint:ignore " + strings.Join(dir.checks, ",") + " suppresses no finding; delete the stale directive",
			})
		}
	}
	return kept, suppressed
}
