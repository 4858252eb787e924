package obs

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

func TestFlagsBindAndWriteFiles(t *testing.T) {
	var f Flags
	fs := flag.NewFlagSet("prog", flag.ContinueOnError)
	f.BindFlags(fs)
	dir := t.TempDir()
	m, tr := filepath.Join(dir, "m.json"), filepath.Join(dir, "t.trace")
	if err := fs.Parse([]string{"-metrics", m, "-trace", tr, "-metrics-interval", "500"}); err != nil {
		t.Fatal(err)
	}
	if f.MetricsInterval() != 500 || f.prog != "prog" {
		t.Fatalf("bound flags = %+v", f)
	}
	if (&Flags{Interval: 500}).MetricsInterval() != 0 {
		t.Error("without -metrics the snapshot interval must be 0 (off)")
	}

	reg := NewRegistry()
	reg.Counter("c", nil, func() uint64 { return 7 })
	reg.Snapshot(1)
	events := []Event{{Kind: KindDRAMRead, TS: 1, Dur: 2}}
	if err := f.WriteFiles(reg.Export(), events); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{m, tr} {
		data, err := os.ReadFile(p)
		if err != nil || !json.Valid(data) {
			t.Errorf("%s: err %v, valid JSON %v", p, err, json.Valid(data))
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(left) != 0 {
		t.Errorf("temporary files left behind: %v", left)
	}

	bad := Flags{Metrics: filepath.Join(dir, "missing", "m.json")}
	if err := bad.WriteFiles(reg.Export(), nil); err == nil {
		t.Error("writing into a missing directory succeeded")
	}
}
