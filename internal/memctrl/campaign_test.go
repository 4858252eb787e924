package memctrl

import (
	"context"
	"fmt"
	"testing"
)

// TestFaultCampaignPinned pins the default seed-1, 100-trial campaign
// against static and Dynamic-PTMC: its per-kind outcome table and final
// degradation counters, as faultprobe prints them. A change to the RNG
// draw order, the traffic, the rig's LLC geometry or a detector moves
// these numbers; two runs in one process (TestFaultCampaignDeterminism)
// would still agree.
func TestFaultCampaignPinned(t *testing.T) {
	for _, tc := range []struct {
		dynamic bool
		want    string
	}{
		{false, `kind               counter    verify  harmless  SILENT
marker-flip              7         2         4       0
payload-flip            14         0         2       0
undecodable              8         4         0       0
misplaced-unit           6         9         1       0
tombstone                9         1         3       0
bogus-lit                0        13         2       0
llp-poison               0         0        15       0
total                   44        29        27       0
degradations: undecodable=15 fallback=12 litSpills=0 integrityErrs=21 rekeys=50
`},
		{true, `kind               counter    verify  harmless  SILENT
marker-flip              9         0         4       0
payload-flip            15         0         1       0
undecodable              8         4         0       0
misplaced-unit          10         6         0       0
tombstone               10         0         3       0
bogus-lit                0        13         2       0
llp-poison               0         0        15       0
total                   52        23        25       0
degradations: undecodable=19 fallback=11 litSpills=0 integrityErrs=24 rekeys=45
`},
	} {
		rep, err := RunFaultCampaign(context.Background(), FaultConfig{Trials: 100, Seed: 1, Dynamic: tc.dynamic})
		if err != nil {
			t.Fatal(err)
		}
		st := rep.Stats
		got := rep.Summary() + fmt.Sprintf("degradations: undecodable=%d fallback=%d litSpills=%d integrityErrs=%d rekeys=%d\n",
			st.UndecodableUnits, st.FallbackReads, st.LITSpills, st.IntegrityErrs, st.ReKeys)
		if got != tc.want {
			t.Errorf("dynamic=%v campaign moved:\n got:\n%s\nwant:\n%s", tc.dynamic, got, tc.want)
		}
	}
}
