package paper

import (
	"bytes"
	"strings"
	"testing"

	"ptmc/internal/sim"
)

// tinyOptions keeps the smoke tests fast: 2 cores, one workload per suite,
// a very short horizon.
func tinyOptions() Options {
	return Options{
		Run:    sim.Spec{Cores: 2, Warmup: 15_000, Measure: 40_000, Seed: 1},
		Spec:   []string{"libquantum06", "mcf06"},
		Graph:  []string{"pr-twitter"},
		Mixes:  []string{},
		All:    []string{"libquantum06", "pr-twitter"},
		L3MB:   1,
		Silent: true,
	}
}

// tinyRunner shares one cached runner across the smoke tests in this file.
func tinyRunner(t *testing.T) (*Runner, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	return NewRunner(tinyOptions(), &buf), &buf
}

func TestTablesSmoke(t *testing.T) {
	r, buf := tinyRunner(t)
	r.TableI()
	if !strings.Contains(buf.String(), "Last-Level Cache") {
		t.Error("Table I missing content")
	}
	if err := r.TableII(); err != nil {
		t.Fatal(err)
	}
	r.TableIII()
	if !strings.Contains(buf.String(), "276 bytes") {
		t.Error("Table III total should be 276 bytes")
	}
	if err := r.TableV(); err != nil {
		t.Fatal(err)
	}
	if err := r.TableVI(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "NaN") {
		t.Errorf("NaN leaked into a table:\n%s", buf.String())
	}
}

func TestFiguresSmoke(t *testing.T) {
	r, buf := tinyRunner(t)
	for name, f := range map[string]func() error{
		"fig4":    r.Figure4,
		"fig5":    r.Figure5,
		"fig6":    r.Figure6,
		"fig9":    r.Figure9,
		"fig12":   r.Figure12,
		"fig14":   r.Figure14,
		"fig15":   r.Figure15,
		"fig17":   r.Figure17,
		"fig18":   r.Figure18,
		"related": r.RelatedWork,
	} {
		if err := f(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	out := buf.String()
	for _, want := range []string{"Figure 4", "Figure 15", "GEOMEAN", "to-60B"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(out, "NaN") {
		t.Error("NaN leaked into a figure")
	}
}

func TestAblationsSmoke(t *testing.T) {
	r, buf := tinyRunner(t)
	if err := r.LLPAblation([]int{64, 512}); err != nil {
		t.Fatal(err)
	}
	r.MarkerWidthNote(16)
	if !strings.Contains(buf.String(), "4B marker") {
		t.Error("marker note missing")
	}
}

func TestResultCacheReuses(t *testing.T) {
	r, _ := tinyRunner(t)
	a, err := r.Result("libquantum06", "uncompressed", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Result("libquantum06", "uncompressed", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cache should return the identical result object")
	}
}

func TestOptionsDefaultsExpand(t *testing.T) {
	o := Full()
	if len(o.spec()) != 21 {
		t.Errorf("full SPEC set = %d", len(o.spec()))
	}
	if len(o.graph()) != 16 {
		t.Errorf("full GAP set = %d", len(o.graph()))
	}
	if len(o.mixes()) != 6 {
		t.Errorf("full mix set = %d", len(o.mixes()))
	}
	if len(o.all()) != 64 {
		t.Errorf("full population = %d", len(o.all()))
	}
}
