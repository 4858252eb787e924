package paper

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"ptmc/internal/sim"
)

// TestResultConcurrent is the -race regression for the Runner cache: eight
// goroutines hammer Result with overlapping keys; the singleflight cache
// must hand every caller the same *sim.Result with no data race and run
// each simulation exactly once.
func TestResultConcurrent(t *testing.T) {
	r, _ := tinyRunner(t)
	keys := []struct{ wl, scheme string }{
		{"libquantum06", sim.SchemeUncompressed},
		{"libquantum06", sim.SchemeTableTMC},
		{"pr-twitter", sim.SchemeUncompressed},
	}
	const goroutines = 8
	got := make([][]*sim.Result, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, k := range keys {
				res, err := r.Result(Job{Workload: k.wl, Scheme: k.scheme})
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				got[g] = append(got[g], res)
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range keys {
			if len(got[g]) <= i || len(got[0]) <= i {
				continue // an earlier error already failed the test
			}
			if got[g][i] != got[0][i] {
				t.Errorf("goroutine %d key %d: distinct *Result pointers — cache deduplication broke", g, i)
			}
		}
	}
}

// render runs one artifact at a given worker count and returns the bytes.
func render(t *testing.T, parallel int, artifact func(r *Runner) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	r := NewParallelRunner(tinyOptions(), &buf, parallel)
	if err := artifact(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelDeterminism is the byte-identity guarantee: the same figure
// rendered with 1 worker and 8 workers must produce identical bytes, and a
// CompareParallel sweep must produce deeply equal Result stats.
func TestParallelDeterminism(t *testing.T) {
	for _, artifact := range []struct {
		name string
		run  func(r *Runner) error
	}{
		{"Figure4", func(r *Runner) error { return r.Figure4() }},
		{"Figure6", func(r *Runner) error { return r.Figure6() }},
	} {
		serial := render(t, 1, artifact.run)
		wide := render(t, 8, artifact.run)
		if !bytes.Equal(serial, wide) {
			t.Errorf("%s: -parallel 1 and -parallel 8 render different bytes:\n--- serial ---\n%s\n--- parallel ---\n%s",
				artifact.name, serial, wide)
		}
	}

	cfg := sim.Default()
	cfg.Workload = "libquantum06"
	cfg.Cores = 2
	cfg.WarmupInstr = 15_000
	cfg.MeasureInstr = 40_000
	cfg.Seed = 1
	cfg.L3Bytes = 1 << 20
	schemes := []string{sim.SchemeUncompressed, sim.SchemeTableTMC, sim.SchemePTMC}
	serial, err := sim.CompareParallel(context.Background(), 1, cfg, schemes...)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := sim.CompareParallel(context.Background(), 8, cfg, schemes...)
	if err != nil {
		t.Fatal(err)
	}
	for _, sch := range schemes {
		if !reflect.DeepEqual(serial[sch], wide[sch]) {
			t.Errorf("CompareParallel %s: stats differ between 1 and 8 workers\nserial: %+v\nwide:   %+v",
				sch, serial[sch], wide[sch])
		}
	}
}

// TestPrefetchProgressOrder checks the non-Silent path: progress lines
// print in submission order even when completions race.
func TestPrefetchProgressOrder(t *testing.T) {
	opts := tinyOptions()
	opts.Silent = false
	run := func(parallel int) []byte {
		var buf bytes.Buffer
		r := NewParallelRunner(opts, &buf, parallel)
		if _, err := r.Results(r.matrix([]string{"libquantum06", "pr-twitter"},
			sim.SchemeUncompressed, sim.SchemeTableTMC)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := run(1)
	wide := run(8)
	if !bytes.Equal(serial, wide) {
		t.Errorf("progress lines differ between 1 and 8 workers:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, wide)
	}
}
