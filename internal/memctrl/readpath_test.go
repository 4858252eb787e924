package memctrl

import (
	"fmt"
	"testing"

	"ptmc/internal/cache"
	"ptmc/internal/core"
	"ptmc/internal/mem"
)

// layoutKind enumerates the memory layouts a 4-line group can be in.
type layoutKind int

const (
	layoutSingles  layoutKind = iota // four uncompressed lines
	layoutPairLo                     // (0,1) 2:1, (2,3) uncompressed
	layoutPairHi                     // (0,1) uncompressed, (2,3) 2:1
	layoutBothPair                   // both pairs 2:1
	layoutQuad                       // 4:1
)

func (k layoutKind) String() string {
	return [...]string{"singles", "pair-lo", "pair-hi", "both-pairs", "quad"}[k]
}

// buildLayout establishes the given memory layout for the group at base by
// driving real writes and evictions.
func buildLayout(t *testing.T, r *testRig, base mem.LineAddr, k layoutKind) {
	t.Helper()
	comp := func(i int) []byte { return compressibleLine(byte(16 + i)) }
	inc := func(i int) []byte { return incompressibleLine(uint64(base) + uint64(i)) }

	vals := make([][]byte, 4)
	switch k {
	case layoutSingles:
		for i := range vals {
			vals[i] = inc(i)
		}
	case layoutPairLo:
		vals[0], vals[1], vals[2], vals[3] = comp(0), comp(1), inc(2), inc(3)
	case layoutPairHi:
		vals[0], vals[1], vals[2], vals[3] = inc(0), inc(1), comp(2), comp(3)
	case layoutBothPair:
		// Compressible in pairs but the four together exceed 60 bytes:
		// two half-random lines per pair would not pair; use values where
		// each pair fits but the quad does not.
		vals[0], vals[1] = pairOnlyLine(0), pairOnlyLine(1)
		vals[2], vals[3] = pairOnlyLine(2), pairOnlyLine(3)
	case layoutQuad:
		for i := range vals {
			vals[i] = comp(i)
		}
	}
	// Install values then evict pair-by-pair (or the quad) to realize the
	// layout in memory.
	for i, v := range vals {
		r.write(0, base+mem.LineAddr(i), v)
	}
	switch k {
	case layoutQuad, layoutBothPair:
		r.evict(base) // ganged/opportunistic handles the rest
		r.evict(base + 2)
	default:
		r.evict(base)
		r.evict(base + 1)
		r.evict(base + 2)
		r.evict(base + 3)
	}
}

// pairOnlyLine compresses to ~25 bytes: two fit in 60, four do not.
func pairOnlyLine(tag byte) []byte {
	l := make([]byte, mem.LineSize)
	for i := 0; i < mem.LineSize; i += 8 {
		l[i] = tag
		l[i+1] = byte(i)
		l[i+2] = 0xA0 | tag
	}
	return l
}

// TestReadPathMatrix reads every line of every layout under every LLP
// prior, checking value correctness and that mispredict re-reads stay
// within the candidate bound (<= 2 extra accesses).
func TestReadPathMatrix(t *testing.T) {
	layouts := []layoutKind{layoutSingles, layoutPairLo, layoutPairHi, layoutBothPair, layoutQuad}
	priors := []cache.Level{cache.Uncompressed, cache.Comp2, cache.Comp4}
	for _, layout := range layouts {
		for _, prior := range priors {
			name := fmt.Sprintf("%v/prior-%v", layout, prior)
			t.Run(name, func(t *testing.T) {
				r := newPTMCRig(t)
				p := r.ctrl.(*PTMC)
				base := mem.LineAddr(640) // page-aligned group
				buildLayout(t, r, base, layout)

				for i := 0; i < 4; i++ {
					a := base + mem.LineAddr(i)
					// Force the LLP prior for this page.
					p.LLP().Record(a, prior, false, false)
					// Drop any LLC copies so the read goes to memory.
					for j := 0; j < 4; j++ {
						r.llc.Drop(base + mem.LineAddr(j))
					}
					before := p.Stats().MispredictReads
					got := r.read(0, a)
					wantLine(t, got, r.arch.Read(a), name)
					extra := p.Stats().MispredictReads - before
					if extra > 2 {
						t.Errorf("line %d: %d extra accesses, candidate bound is 2", a, extra)
					}
				}
				if p.Stats().IntegrityErrs != 0 {
					t.Fatalf("integrity errors in %s", name)
				}
				if _, err := p.VerifyImage(r.resident); err != nil {
					t.Fatalf("image unsound after %s: %v", name, err)
				}
			})
		}
	}
}

// TestReadPathStaleTombstone: predicted-uncompressed read of a relocated
// line must bounce off the Marker-IL tombstone and find the compressed
// home (§IV-C "Efficiently Invalidating Stale Copies").
func TestReadPathStaleTombstone(t *testing.T) {
	r := newPTMCRig(t)
	p := r.ctrl.(*PTMC)
	r.write(0, 644, compressibleLine(1))
	r.write(0, 645, compressibleLine(2))
	r.evict(644) // pair at 644, tombstone at 645
	// Force prediction "uncompressed" for the page.
	p.LLP().Record(645, cache.Uncompressed, false, false)
	before := p.Stats().MispredictReads
	got := r.read(0, 645)
	wantLine(t, got, compressibleLine(2), "via tombstone")
	if p.Stats().MispredictReads != before+1 {
		t.Errorf("expected exactly one bounce, got %d", p.Stats().MispredictReads-before)
	}
}

// TestGroupBaseNeedsNoPrediction: index-0 lines are found in one access
// regardless of how wrong the page's LLP entry is.
func TestGroupBaseNeedsNoPrediction(t *testing.T) {
	r := newPTMCRig(t)
	p := r.ctrl.(*PTMC)
	r.write(0, 648, incompressibleLine(5))
	r.evict(648)
	p.LLP().Record(648, cache.Comp4, false, false) // poison the prior
	before := p.Stats().MispredictReads
	got := r.read(0, 648)
	wantLine(t, got, incompressibleLine(5), "group base")
	if p.Stats().MispredictReads != before {
		t.Error("index-0 line must never need a second access")
	}
}

// TestLLPTrainsOnOutcome: after one mispredicted read, the next read of a
// same-page line predicts the new level correctly.
func TestLLPTrainsOnOutcome(t *testing.T) {
	r := newPTMCRig(t)
	p := r.ctrl.(*PTMC)
	// Realize a quad in one page.
	for i := 0; i < 4; i++ {
		r.write(0, mem.LineAddr(704+i), compressibleLine(byte(i)))
	}
	r.evict(704)
	// Poison the prior; first read of a non-base line mispredicts but
	// trains the page entry.
	p.LLP().Record(705, cache.Uncompressed, false, false)
	r.read(0, 705)
	if p.LLP().Predict(706) != cache.Comp4 {
		t.Error("LLP should have learned the page's 4:1 status")
	}
}

var _ = core.GroupBase // keep import if geometry helpers get trimmed
