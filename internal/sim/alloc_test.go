package sim

import (
	"testing"

	"ptmc/internal/mem"
	"ptmc/internal/vm"
)

// TestReadMissAllocs guards the simulator's miss path: a steady-state L3
// read miss through access — the primary miss and a second access merged
// into its MSHR — allocates nothing. MSHRs and their waiters are slot
// tables with prebuilt completions, found through a slot index, and the
// controller below pools its own read contexts.
func TestReadMissAllocs(t *testing.T) {
	for _, scheme := range []string{SchemeUncompressed, SchemeDynamicPTMC} {
		t.Run(scheme, func(t *testing.T) {
			cfg := Default()
			cfg.Workload = "lbm06"
			cfg.Scheme = scheme
			cfg.Cores = 1
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const pages = 4
			const lines = pages * vm.PageLines
			fired := 0
			done := func(int64) { fired++ }
			busRatio := int64(cfg.DRAM.BusRatio)
			i := 0
			// miss reads one line of a fresh group twice before its fill
			// arrives, waits for both completions, and drops the group
			// from the hierarchy so the next pass misses again.
			miss := func() {
				vaddr := uint64(i%lines) * mem.LineSize * 4 % (lines * mem.LineSize)
				i++
				want := fired + 2
				misses := s.l3.Stats.Misses
				s.access(0, vaddr, false, s.now, done)
				s.access(0, vaddr, false, s.now, done)
				for n := 0; fired < want; n++ {
					if n > 1_000_000 {
						t.Fatal("read miss never completed")
					}
					s.now++
					if s.now%busRatio == 0 {
						s.ctrl.Tick(s.now)
					}
				}
				if s.l3.Stats.Misses != misses+1 {
					t.Fatalf("pass %d: L3 misses rose by %d, want one primary miss", i, s.l3.Stats.Misses-misses)
				}
				paddr, _ := s.translate(0, vaddr)
				group := paddr &^ 3
				for a := group; a < group+4; a++ {
					llcAdapter{s}.Drop(a)
				}
			}
			for n := 0; n < 2*lines; n++ {
				miss()
			}
			if a := testing.AllocsPerRun(lines, miss); a != 0 {
				t.Errorf("steady-state read miss (primary and merged): %.1f allocs/op, want 0", a)
			}
		})
	}
}
