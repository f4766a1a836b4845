package lint

import (
	"encoding/json"
	"fmt"
	"io"
)

// severity is the one severity every finding and check carries: each
// check enforces a hard invariant. The version-1 report keeps the key.
const severity = "error"

// JSONDiagnostic is the wire form of one finding in -format json
// output. The shape is stable: CI consumers and the artifact uploaded
// next to the sqmbench run report parse it.
type JSONDiagnostic struct {
	Check    string `json:"check"`
	Severity string `json:"severity"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// JSONReport is the top-level -format json document.
type JSONReport struct {
	// Version identifies the report schema; bump on breaking changes.
	Version int `json:"version"`
	// Checks lists the analyzers that ran.
	Checks []JSONCheck `json:"checks"`
	// Diagnostics are the kept findings, in deterministic order.
	Diagnostics []JSONDiagnostic `json:"diagnostics"`
	// Suppressed counts findings removed by //lint:ignore directives.
	Suppressed int `json:"suppressed"`
}

// JSONCheck describes one analyzer in the report header.
type JSONCheck struct {
	Name     string `json:"name"`
	Doc      string `json:"doc"`
	Severity string `json:"severity"`
}

// toJSONDiagnostic converts an in-memory diagnostic, rewriting the
// file name relative to root when possible so reports are machine- and
// repo-portable.
func toJSONDiagnostic(d Diagnostic, trimPrefix string) JSONDiagnostic {
	file := d.Pos.Filename
	if trimPrefix != "" {
		if rel, ok := trimPath(file, trimPrefix); ok {
			file = rel
		}
	}
	return JSONDiagnostic{
		Check:    d.Check,
		Severity: severity,
		File:     file,
		Line:     d.Pos.Line,
		Column:   d.Pos.Column,
		Message:  d.Message,
	}
}

// trimPath strips prefix (plus the following separator) from path.
func trimPath(path, prefix string) (string, bool) {
	if len(path) > len(prefix)+1 && path[:len(prefix)] == prefix && (path[len(prefix)] == '/' || path[len(prefix)] == '\\') {
		return path[len(prefix)+1:], true
	}
	return "", false
}

// WriteJSON renders the result as an indented JSON report.
func WriteJSON(w io.Writer, res Result, analyzers []*Analyzer, trimPrefix string) error {
	rep := JSONReport{
		Version:     1,
		Checks:      make([]JSONCheck, 0, len(analyzers)),
		Diagnostics: make([]JSONDiagnostic, 0, len(res.Diagnostics)),
		Suppressed:  len(res.Suppressed),
	}
	for _, a := range analyzers {
		rep.Checks = append(rep.Checks, JSONCheck{Name: a.Name, Doc: a.Doc, Severity: severity})
	}
	for _, d := range res.Diagnostics {
		rep.Diagnostics = append(rep.Diagnostics, toJSONDiagnostic(d, trimPrefix))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteText renders the result one finding per line, in the
// conventional file:line:col: check: message form.
func WriteText(w io.Writer, res Result, trimPrefix string) error {
	for _, d := range res.Diagnostics {
		jd := toJSONDiagnostic(d, trimPrefix)
		if _, err := fmt.Fprintf(w, "%s:%d:%d: %s: %s\n", jd.File, jd.Line, jd.Column, jd.Check, jd.Message); err != nil {
			return err
		}
	}
	return nil
}
