package memctrl

import (
	"errors"
	"testing"

	"ptmc/internal/cache"
	"ptmc/internal/core"
	"ptmc/internal/dram"
	"ptmc/internal/mem"
)

// TestVerifyImageViolationTaxonomy plants one specific corruption per
// taxonomy sentinel into an otherwise healthy image and asserts VerifyImage
// reports exactly that typed error. Every branch of the verifier is pinned
// here: a refactor that silently drops a check fails the matching row.
func TestVerifyImageViolationTaxonomy(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, r *testRig, p *PTMC)
		want    error
	}{
		{
			name: "unit-not-at-home",
			want: ErrUnitMisplaced,
			corrupt: func(t *testing.T, r *testRig, p *PTMC) {
				// A 4:1 marker sealed at a location whose group base it is not.
				sealed := p.Markers().SealCompressed(101, make([]byte, 8), true)
				r.img.Write(101, sealed[:])
			},
		},
		{
			name: "undecodable-unit",
			want: ErrUndecodable,
			corrupt: func(t *testing.T, r *testRig, p *PTMC) {
				// A valid 4:1 marker over garbage that cannot decode.
				blob := make([]byte, core.CompressedBudget)
				for i := range blob {
					blob[i] = 0xFF
				}
				sealed := p.Markers().SealCompressed(100, blob, true)
				r.img.Write(100, sealed[:])
			},
		},
		{
			name: "double-covered-line",
			want: ErrDoubleCovered,
			corrupt: func(t *testing.T, r *testRig, p *PTMC) {
				// 301 is covered by the pair at 300; planting plain data at
				// 301 makes two locations serve it.
				r.write(0, 300, compressibleLine(1))
				r.write(0, 301, compressibleLine(2))
				r.evict(300)
				if _, hit := r.llc.Probe(301); hit {
					r.llc.Drop(301)
				}
				r.img.Write(301, r.arch.Read(301))
			},
		},
		{
			name: "stale-lit-entry",
			want: ErrStaleLIT,
			corrupt: func(t *testing.T, r *testRig, p *PTMC) {
				// LIT claims 400 is inverted; its image is plain data.
				r.write(0, 400, incompressibleLine(4))
				r.evict(400)
				p.LIT().Insert(400)
			},
		},
		{
			name: "tombstone-over-live-data",
			want: ErrUncovered,
			corrupt: func(t *testing.T, r *testRig, p *PTMC) {
				// 500 is live (non-zero architectural value, not resident)
				// but its only image location becomes a tombstone: the value
				// is unreachable.
				r.write(0, 500, incompressibleLine(5))
				r.evict(500)
				il := p.Markers().MarkerIL(500)
				r.img.Write(500, il[:])
			},
		},
		{
			name: "value-mismatch",
			want: ErrValueMismatch,
			corrupt: func(t *testing.T, r *testRig, p *PTMC) {
				// Flip a payload byte of an uncompressed single: the class
				// is unchanged but the decoded value is wrong.
				r.write(0, 600, incompressibleLine(6))
				r.evict(600)
				data := append([]byte(nil), r.img.Read(600)...)
				data[10] ^= 0x01
				r.img.Write(600, data)
			},
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r := newPTMCRig(t)
			p := r.ctrl.(*PTMC)
			// Healthy background state so the verifier has real work.
			r.write(0, 100, compressibleLine(10))
			r.write(0, 102, incompressibleLine(11))
			r.evict(100)
			r.evict(102)
			if _, err := p.VerifyImage(r.resident); err != nil {
				t.Fatalf("rig unhealthy before corruption: %v", err)
			}

			tc.corrupt(t, r, p)

			_, err := p.VerifyImage(r.resident)
			if err == nil {
				t.Fatalf("verifier missed the %s corruption", tc.name)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want errors.Is(err, %v)", err, tc.want)
			}
			var verr *VerifyError
			if !errors.As(err, &verr) {
				t.Fatalf("error %v is not a *VerifyError", err)
			}
			if verr.Cause != tc.want {
				t.Errorf("VerifyError.Cause = %v, want %v", verr.Cause, tc.want)
			}

			// Scrub must repair every image-level corruption (the stale LIT
			// entry is cleared by the scrub's own LIT maintenance).
			p.Scrub(verr.Loc)
			if tc.name == "double-covered-line" || tc.name == "unit-not-at-home" {
				// These planted state in a second group too.
				p.Scrub(300)
				p.Scrub(100)
			}
			if _, err := p.VerifyImage(r.resident); err != nil {
				t.Errorf("Scrub did not repair %s: %v", tc.name, err)
			}
		})
	}
}

// TestTableTMCUndecodableFillTaxonomy plants an undecodable compressed
// unit in a table-TMC image and reads through it. The decode failure is a
// detected fault the controller survives, so it must follow the PTMC
// degradation taxonomy: count UndecodableUnits (not IntegrityErrs, which
// is reserved for wrong decoded values) and serve the architectural value
// as an uncompressed fill, keeping demand fills summable across the
// compressed/uncompressed categories. An earlier version bumped
// IntegrityErrs and installed at the compressed level without counting the
// fill anywhere.
func TestTableTMCUndecodableFillTaxonomy(t *testing.T) {
	r := newRig(t, 64*64, func(d *dram.DRAM, img, arch *mem.Store, llc LLC) Controller {
		c, err := NewTableTMC(d, img, arch, llc, 1<<30, 32<<10)
		if err != nil {
			t.Fatal(err)
		}
		return c
	})
	tt := r.ctrl.(*TableTMC)

	// Realize a 2:1 pair at 300 so the CSI names a compressed home.
	r.write(0, 300, compressibleLine(1))
	r.write(0, 301, compressibleLine(2))
	r.evict(300)
	if tt.Meta().Peek(301) != cache.Comp2 {
		t.Fatal("rig did not realize a 2:1 pair")
	}
	for _, a := range []mem.LineAddr{300, 301} {
		if _, in := r.llc.Probe(a); in {
			r.llc.Drop(a)
		}
	}

	// Corrupt the unit's payload so it cannot decode.
	garbage := make([]byte, mem.LineSize)
	for i := range garbage {
		garbage[i] = 0xFF
	}
	r.img.Write(300, garbage)

	st := r.ctrl.Stats()
	fillsBefore := st.FillsCompressed + st.FillsUncompressed
	uncompBefore := st.FillsUncompressed
	got := r.read(0, 301)
	wantLine(t, got, compressibleLine(2), "architectural fallback value")

	if st.UndecodableUnits != 1 {
		t.Errorf("UndecodableUnits = %d, want 1", st.UndecodableUnits)
	}
	if st.IntegrityErrs != 0 {
		t.Errorf("IntegrityErrs = %d, want 0 (a detected decode failure is a degradation, not silent corruption)",
			st.IntegrityErrs)
	}
	if st.FillsUncompressed != uncompBefore+1 {
		t.Errorf("FillsUncompressed = %d, want %d: the fallback fill must be counted", st.FillsUncompressed, uncompBefore+1)
	}
	if sum := st.FillsCompressed + st.FillsUncompressed; sum != fillsBefore+1 {
		t.Errorf("fills no longer sum across categories: %d before, %d after one demand fill", fillsBefore, sum)
	}
	if e, in := r.llc.Probe(301); !in {
		t.Error("fallback fill not installed")
	} else if e.Level != cache.Uncompressed {
		t.Errorf("fallback installed at level %v, want Uncompressed", e.Level)
	}
	if st.Degradations() != 1 {
		t.Errorf("Degradations() = %d, want 1", st.Degradations())
	}
}

// TestVerifyErrorUnwrap pins the error plumbing itself.
func TestVerifyErrorUnwrap(t *testing.T) {
	e := verifyErr(7, 4, ErrUndecodable, "level %d", 2)
	if !errors.Is(e, ErrUndecodable) {
		t.Error("verifyErr result does not unwrap to its sentinel")
	}
	if e.Line != 7 || e.Loc != 4 {
		t.Errorf("Line/Loc = %d/%d, want 7/4", e.Line, e.Loc)
	}
	if e.Error() == "" || e.Detail == "" {
		t.Error("empty rendering")
	}
}
