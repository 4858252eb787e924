package core

import (
	"fmt"

	"ptmc/internal/cache"
	"ptmc/internal/mem"
	"ptmc/internal/vm"
)

// LLPEntries is the paper's Last Compressibility Table size: 512 entries of
// 2 bits = 128 bytes.
const LLPEntries = 512

// LLP is the Line Location Predictor (§IV-B): it predicts a line's
// compression status — and therefore its location — from the last status
// seen for the same (hashed) page, exploiting the observation that lines
// within a page tend to have similar compressibility.
type LLP struct {
	lct []cache.Level

	Predictions uint64
	Correct     uint64
}

// CheckLLPEntries reports whether NewLLP accepts n entries: a positive
// power of two.
func CheckLLPEntries(n int) error {
	if n <= 0 || n&(n-1) != 0 {
		return fmt.Errorf("core: LLP entries must be a positive power of two, got %d", n)
	}
	return nil
}

// NewLLP builds a predictor with n entries (use LLPEntries for the paper's
// configuration; cmd/sweep ablates this). n must pass CheckLLPEntries,
// which sim.Config.Validate applies before any predictor is built.
func NewLLP(n int) *LLP {
	if err := CheckLLPEntries(n); err != nil {
		panic(err)
	}
	return &LLP{lct: make([]cache.Level, n)}
}

// index hashes the page address into the LCT.
func (p *LLP) index(a mem.LineAddr) int {
	page := uint64(a) >> (vm.PageShift - 6)
	return int(mix(page) & uint64(len(p.lct)-1))
}

// Predict returns the predicted compression level for a line. New entries
// predict Uncompressed, matching PTMC's install-uncompressed policy.
func (p *LLP) Predict(a mem.LineAddr) cache.Level {
	return p.lct[p.index(a)]
}

// Record notes the actual level discovered for a line (via the inline
// marker). When counted is true this was a genuine location prediction;
// correct reports whether the predicted *location* was right (a level
// mismatch that maps to the same location — e.g. 2:1 vs uncompressed for a
// pair-base line — still found the line in one access). Accuracy statistics
// feed Figure 9.
func (p *LLP) Record(a mem.LineAddr, actual cache.Level, counted, correct bool) {
	if counted {
		p.Predictions++
		if correct {
			p.Correct++
		}
	}
	p.lct[p.index(a)] = actual
}

// Accuracy returns the fraction of counted predictions that were correct.
func (p *LLP) Accuracy() float64 {
	if p.Predictions == 0 {
		return 0
	}
	return float64(p.Correct) / float64(p.Predictions)
}

// StorageBytes returns the on-chip cost (2 bits per entry).
func (p *LLP) StorageBytes() int { return len(p.lct) * 2 / 8 }
