// Package bench is the experiment harness: one runner per table and
// figure of the paper's evaluation (§VI and Appendix D), each emitting
// the same rows/series the paper reports. The cmd/sqmbench binary and
// the repository-root benchmarks are thin wrappers around this package.
//
// Absolute numbers are not expected to match the paper (synthetic
// datasets, different hardware); the runners preserve the *shape*: which
// method wins, how gaps scale with ε, γ, n, m and P, and where SQM
// meets the centralized baseline.
package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is a printable experiment result.
type Table struct {
	ID     string     `json:"id"` // "fig2-kddcup", "table2", ...
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// WriteCSV emits the table as RFC-4180 CSV (header row first).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTo pretty-prints the table with aligned columns.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	b.WriteByte('\n')
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Options tunes the harness between CI-friendly and paper-scale runs.
type Options struct {
	// Runs is the repeat count per cell (the paper averages 20).
	Runs int
	// Full switches to paper-scale dataset shapes (see DESIGN.md for
	// the documented scale-downs that remain even at Full). Every timing
	// cell runs the real BGW protocol, so Table II at Full takes about
	// 20 s and 2 GB peak RSS on 2 cores.
	Full bool
	// TinyLR shrinks the logistic-regression shapes to unit-test scale
	// (overridden by Full).
	TinyLR bool
	// Seed makes every experiment reproducible.
	Seed uint64
}

// Defaults fills the zero values.
func (o Options) Defaults() Options {
	if o.Runs == 0 {
		o.Runs = 3
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// All runs the paper's figures and tables in paper order.
func All(o Options) []*Table {
	var out []*Table
	out = append(out, Figure2(o)...)
	out = append(out, Figure3(o), Figure4(o), Figure5(o))
	out = append(out, Table1(), Table2(o), Table3(), Table4(o), Table5(o))
	return out
}

// IDs lists the experiment ids ByID accepts: the paper's figures and
// tables (what "all" runs), then the experiments beyond the paper.
const IDs = "fig2, fig3, fig4, fig5, table1, table2, table3, table4, table5, all, ablations, profile"

// ByID returns the runner output for one experiment id of IDs.
func ByID(id string, o Options) ([]*Table, error) {
	switch strings.ToLower(id) {
	case "fig2", "figure2":
		return Figure2(o), nil
	case "fig3", "figure3":
		return []*Table{Figure3(o)}, nil
	case "fig4", "figure4":
		return []*Table{Figure4(o)}, nil
	case "fig5", "figure5":
		return []*Table{Figure5(o)}, nil
	case "table1":
		return []*Table{Table1()}, nil
	case "table2":
		return []*Table{Table2(o)}, nil
	case "table3":
		return []*Table{Table3()}, nil
	case "table4":
		return []*Table{Table4(o)}, nil
	case "table5":
		return []*Table{Table5(o)}, nil
	case "all":
		return All(o), nil
	case "ablations":
		return Ablations(o), nil
	case "profile":
		return []*Table{Profile(o)}, nil
	default:
		return nil, fmt.Errorf("bench: unknown experiment %q (valid ids: %s)", id, IDs)
	}
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

func f4(v float64) string { return fmt.Sprintf("%.4f", v) }

func fe(v float64) string { return fmt.Sprintf("%.3g", v) }
