package ptmc

import (
	"os"
	"strconv"
	"strings"
	"testing"
)

// quickReport is the committed quick-set report that EXPERIMENTS.md quotes
// (regenerate with `go run ./cmd/paperbench -quiet > paperbench_quick.txt`).
const quickReport = "paperbench_quick.txt"

// reportSection returns the lines of the report section whose "=== title"
// header starts with title, up to the blank line that ends it, header
// excluded.
func reportSection(t *testing.T, report, title string) []string {
	t.Helper()
	var out []string
	in := false
	for _, l := range strings.Split(report, "\n") {
		switch {
		case strings.HasPrefix(l, "=== "+title):
			in = true
		case in && strings.TrimSpace(l) == "":
			return out
		case in:
			out = append(out, l)
		}
	}
	if !in {
		t.Fatalf("%s has no %q section", quickReport, title)
	}
	return out
}

// number parses a report figure, dropping a trailing % and a leading +.
func number(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimPrefix(strings.TrimSuffix(s, "%"), "+"), 64)
	if err != nil {
		t.Fatalf("%s: %v", quickReport, err)
	}
	return v
}

// table parses a section whose first line names the columns and whose
// other lines are a row label followed by one figure per column (a bar
// after "|" is ignored), keyed by row label and column name.
func table(t *testing.T, lines []string) map[string]map[string]float64 {
	t.Helper()
	cols := strings.Fields(lines[0])[1:]
	rows := map[string]map[string]float64{}
	for _, l := range lines[1:] {
		f := strings.Fields(strings.SplitN(l, "|", 2)[0])
		if len(f) != len(cols)+1 {
			t.Fatalf("%s: row %q has %d figures, want %d", quickReport, l, len(f)-1, len(cols))
		}
		rows[f[0]] = map[string]float64{}
		for i, c := range cols {
			rows[f[0]][c] = number(t, f[i+1])
		}
	}
	return rows
}

// TestPaperClaims asserts the shape claims EXPERIMENTS.md makes about the
// committed quick report, one subtest per claim, so a drift names the
// claim it broke instead of showing only a text diff.
func TestPaperClaims(t *testing.T) {
	raw, err := os.ReadFile(quickReport)
	if err != nil {
		t.Fatal(err)
	}
	report := string(raw)

	t.Run("figure17-worst-case-within-1pct", func(t *testing.T) {
		sec := reportSection(t, report, "Figure 17")
		last := sec[len(sec)-1]
		if !strings.HasPrefix(last, "min=") {
			t.Fatalf("Figure 17 ends with %q, want the min= summary", last)
		}
		if min := number(t, strings.TrimPrefix(strings.Fields(last)[0], "min=")); min < 0.99 {
			t.Errorf("Dynamic-PTMC's worst case is %.3f, want >= 0.99", min)
		}
	})

	t.Run("table3-total-276B", func(t *testing.T) {
		sum := 0.0
		for _, l := range reportSection(t, report, "Table III") {
			f := strings.Fields(l)
			if f[0] == "Total" {
				if total := number(t, f[1]); total != 276 || sum != total {
					t.Errorf("Table III total %v bytes, rows sum to %v; want 276 both", total, sum)
				}
				return
			}
			sum += number(t, f[len(f)-2])
		}
		t.Error("Table III has no Total row")
	})

	fig15 := func(t *testing.T) map[string]map[string]float64 {
		return table(t, reportSection(t, report, "Figure 15"))
	}
	t.Run("figure15-geomean-order", func(t *testing.T) {
		g := fig15(t)["GEOMEAN"]
		order := []string{"table-tmc", "ptmc", "dynamic-ptmc", "ideal"}
		for i := 1; i < len(order); i++ {
			if g[order[i-1]] >= g[order[i]] {
				t.Errorf("Figure 15 GEOMEAN: %s %.3f not below %s %.3f",
					order[i-1], g[order[i-1]], order[i], g[order[i]])
			}
		}
	})
	t.Run("figure15-ideal-bounds-dynamic", func(t *testing.T) {
		for wl, row := range fig15(t) {
			if row["ideal"] < row["dynamic-ptmc"] {
				t.Errorf("Figure 15 %s: ideal %.3f below dynamic-ptmc %.3f", wl, row["ideal"], row["dynamic-ptmc"])
			}
		}
	})

	t.Run("table6-nextline-loses-on-spec-and-gap", func(t *testing.T) {
		rows := table(t, reportSection(t, report, "Table VI"))
		for _, suite := range []string{"SPEC", "GAP"} {
			row, ok := rows[suite]
			if !ok {
				t.Fatalf("Table VI has no %s row", suite)
			}
			if row["next-line"] >= 0 {
				t.Errorf("Table VI %s: next-line %+.1f%%, want negative", suite, row["next-line"])
			}
		}
	})
}
