package memctrl

import (
	"bytes"

	"ptmc/internal/compress"
	"ptmc/internal/core"
	"ptmc/internal/mem"
)

// VerifyImage scans every line of every touched page of the DRAM image,
// stored or not, and checks the paper's soundness invariant end to end:
// classifying a location by its inline markers (plus the LIT) yields an
// interpretation under which every line whose authoritative copy is in
// memory decodes to its architectural value, no location is interpretable
// two ways, and every architecturally live line is served by some location
// (or by the LLC).
//
// inLLC reports lines whose authoritative copy is (possibly dirty) in the
// cache hierarchy — memory is allowed to be stale (or uncovered) for
// exactly those. VerifyImage returns the number of lines whose
// authoritative copy was verified in memory, or a *VerifyError naming the
// first violation; the error wraps one of the taxonomy sentinels
// (ErrUnitMisplaced, ErrUndecodable, ErrDoubleCovered, ErrValueMismatch,
// ErrStaleLIT, ErrUncovered) for errors.Is classification.
func (p *PTMC) VerifyImage(inLLC func(a mem.LineAddr) bool) (int, error) {
	covered := map[mem.LineAddr]mem.LineAddr{} // line -> home that serves it
	verified := 0
	// Both stores are read through ReadNoAlloc, so the sweep synthesizes
	// the lines the image or the architectural store has never stored
	// (into these buffers) instead of materializing them.
	var imgBuf, archBuf [mem.LineSize]byte
	archVal := func(a mem.LineAddr) []byte { return p.arch.ReadNoAlloc(a, archBuf[:]) }

	for _, loc := range p.img.TouchedLines() {
		data := p.img.ReadNoAlloc(loc, imgBuf[:])
		class := p.markers.Classify(loc, data)
		switch class {
		case core.ClassComp2, core.ClassComp4:
			level := class.Level()
			if core.HomeFor(loc, level) != loc {
				return verified, verifyErr(loc, loc, ErrUnitMisplaced, "%v unit", level)
			}
			members := core.MembersAt(loc, level)
			lines, err := compress.DecompressGroup(p.alg, data[:core.CompressedBudget], len(members))
			if err != nil {
				return verified, verifyErr(loc, loc, ErrUndecodable, "%v unit: %v", level, err)
			}
			for i, m := range members {
				if prev, dup := covered[m]; dup {
					return verified, verifyErr(m, loc, ErrDoubleCovered, "also served by %d", prev)
				}
				covered[m] = loc
				if inLLC != nil && inLLC(m) {
					continue // LLC copy is authoritative; memory may be stale
				}
				if !bytes.Equal(lines[i], archVal(m)) {
					return verified, verifyErr(m, loc, ErrValueMismatch, "%v member %d", level, i)
				}
				verified++
			}
		case core.ClassInvalid:
			// Tombstone: must not be anyone's authoritative home.
		case core.ClassInvComp2, core.ClassInvComp4, core.ClassInvIL:
			inverted, _ := p.lit.Contains(loc)
			val := data
			if inverted {
				val = core.Invert(data)
			}
			if prev, dup := covered[loc]; dup {
				return verified, verifyErr(loc, loc, ErrDoubleCovered, "also served by %d", prev)
			}
			covered[loc] = loc
			if inLLC != nil && inLLC(loc) {
				continue
			}
			if !bytes.Equal(val, archVal(loc)) {
				return verified, verifyErr(loc, loc, ErrValueMismatch, "inverted=%v", inverted)
			}
			verified++
		default: // uncompressed
			if prev, dup := covered[loc]; dup {
				return verified, verifyErr(loc, loc, ErrDoubleCovered, "also served by %d", prev)
			}
			covered[loc] = loc
			if inLLC != nil && inLLC(loc) {
				continue
			}
			if !bytes.Equal(data, archVal(loc)) {
				return verified, verifyErr(loc, loc, ErrValueMismatch, "uncompressed")
			}
			verified++
		}
	}

	// Every LIT entry must point at a location that is actually stored
	// inverted (classifies as a complement pattern).
	for _, a := range p.lit.Addresses() {
		if class := p.markers.Classify(a, p.img.ReadNoAlloc(a, imgBuf[:])); !class.NeedsLIT() {
			return verified, verifyErr(a, a, ErrStaleLIT, "image class is %d", class)
		}
	}

	// Completeness: every architecturally live line must be served by some
	// image location or be resident in the LLC. This is what catches a
	// tombstone planted over live data — the scan above sees a perfectly
	// well-formed Marker-IL and moves on; only the coverage map knows the
	// line's value is now unreachable.
	for _, m := range p.arch.TouchedLines() {
		if _, ok := covered[m]; ok {
			continue
		}
		if inLLC != nil && inLLC(m) {
			continue
		}
		if p.img.Touched(m) {
			return verified, verifyErr(m, m, ErrUncovered, "image location is a tombstone or foreign unit")
		}
		// The image never materialized this line's page: sound only if the
		// architectural value is still the zero line both stores imply.
		if !bytes.Equal(archVal(m), make([]byte, mem.LineSize)) {
			return verified, verifyErr(m, m, ErrUncovered, "architectural page never materialized in the image")
		}
	}
	return verified, nil
}
