package memctrl

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"ptmc/internal/cache"
	"ptmc/internal/dram"
	"ptmc/internal/fault"
	"ptmc/internal/mem"
	"ptmc/internal/obs"
)

// This file is the fault-campaign driver: it attacks a live PTMC controller
// with the injectors from internal/fault and checks the robustness claim the
// rest of the repo assumes — every injected fault is either *detected* (a
// degradation counter moves, or VerifyImage names the corruption with a
// typed error) or *harmless* (the image still verifies end to end). A trial
// that is neither is a silent corruption, the one outcome that must never
// occur.

// FaultOutcome classifies one campaign trial.
type FaultOutcome int

const (
	// FaultDetectedCounter: a degradation/integrity counter moved after the
	// injection — the controller noticed at access time.
	FaultDetectedCounter FaultOutcome = iota
	// FaultDetectedVerify: counters stayed quiet but VerifyImage returned a
	// typed error naming the corruption — the scrub-time detector caught it.
	FaultDetectedVerify
	// FaultHarmless: counters quiet and the image verifies; the fault was
	// overwritten, landed on dead state, or is benign by design (LLP
	// poisoning costs bandwidth, never correctness).
	FaultHarmless
	// FaultSilent: the counters stayed quiet, VerifyImage passed, and after
	// flushing the LLC and re-reading every live line the image *still*
	// fails verification — the verifier and the read path disagree about
	// what memory holds. Zero by design; any occurrence is a soundness bug.
	FaultSilent
)

var faultOutcomeNames = [...]string{
	FaultDetectedCounter: "detected-counter",
	FaultDetectedVerify:  "detected-verify",
	FaultHarmless:        "harmless",
	FaultSilent:          "SILENT",
}

func (o FaultOutcome) String() string {
	if o < 0 || int(o) >= len(faultOutcomeNames) {
		return fmt.Sprintf("outcome(%d)", int(o))
	}
	return faultOutcomeNames[o]
}

// Detected reports whether the trial outcome counts as a detection.
func (o FaultOutcome) Detected() bool {
	return o == FaultDetectedCounter || o == FaultDetectedVerify
}

// FaultTrial records one injection and its adjudication.
type FaultTrial struct {
	Trial     int
	Injection fault.Injection
	Outcome   FaultOutcome
	Detector  string // which counter or typed error detected it ("" if harmless)
}

// FaultConfig parameterizes a campaign. The zero value selects usable
// defaults (see setDefaults).
type FaultConfig struct {
	Trials      int          // injections to run (default 100)
	OpsPerTrial int          // traffic operations around each injection (default 256)
	Lines       int          // footprint in lines (default 2048 = 128 KB)
	LLCBytes    int          // campaign LLC size (default 64 KB — smaller than the footprint so evictions happen)
	Seed        int64        // RNG seed; (Seed, Trials) replays exactly (default 1)
	Kinds       []fault.Kind // fault kinds to draw from (default: all)
	Dynamic     bool         // attack Dynamic-PTMC instead of static PTMC

	// Observability (internal/obs). Trace attaches an event tracer
	// (obs.DefaultTraceCapacity events) to the controller under attack —
	// scrubs, re-keys, evictions, and DRAM traffic land in
	// FaultReport.TraceEvents. Metrics snapshots the campaign's detection
	// counters after every adjudicated trial, one window per trial, into
	// FaultReport.Metrics. Both default off and cost nothing when off.
	Trace   bool
	Metrics bool
}

func (c *FaultConfig) setDefaults() {
	if c.Trials == 0 {
		c.Trials = 100
	}
	if c.OpsPerTrial == 0 {
		c.OpsPerTrial = 256
	}
	if c.Lines == 0 {
		c.Lines = 2048
	}
	if c.LLCBytes == 0 {
		c.LLCBytes = 64 << 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.Kinds) == 0 {
		c.Kinds = fault.Kinds()
	}
}

// FaultReport is the campaign result.
type FaultReport struct {
	Config FaultConfig
	Trials []FaultTrial

	DetectedCounter int
	DetectedVerify  int
	Harmless        int
	Silent          int

	Stats    Stats // controller counters at campaign end
	Verified int   // lines verified by the final VerifyImage pass

	// Observability output (nil/empty unless enabled in FaultConfig): one
	// metrics window per adjudicated trial, plus the controller event
	// stream recorded during the campaign.
	Metrics      *obs.MetricsDump
	TraceEvents  []obs.Event
	TraceDropped uint64
}

// Summary renders the per-kind outcome table.
func (r *FaultReport) Summary() string {
	byKind := map[fault.Kind]*[4]int{} // indexed by FaultOutcome
	for _, t := range r.Trials {
		if byKind[t.Injection.Kind] == nil {
			byKind[t.Injection.Kind] = new([4]int)
		}
		byKind[t.Injection.Kind][t.Outcome]++
	}
	var b strings.Builder
	row := func(name any, n [4]int) {
		fmt.Fprintf(&b, "%-16s %9d %9d %9d %7d\n", name, n[0], n[1], n[2], n[3])
	}
	fmt.Fprintf(&b, "%-16s %9s %9s %9s %7s\n", "kind", "counter", "verify", "harmless", "SILENT")
	for _, kind := range fault.Kinds() {
		if n := byKind[kind]; n != nil {
			row(kind, *n)
		}
	}
	row("total", [4]int{r.DetectedCounter, r.DetectedVerify, r.Harmless, r.Silent})
	return b.String()
}

// traffic runs ops random operations on lines [0, lines): writes of
// compressible, incompressible, and marker-colliding data, reads, and
// forced evictions. All randomness comes from rng, so a campaign replays
// from its seed.
func (r *rig) traffic(rng *rand.Rand, lines, ops int) error {
	markers := r.ctrl.(*PTMC).Markers()
	for i := 0; i < ops; i++ {
		a := mem.LineAddr(rng.Intn(lines))
		var err error
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // store
			var val []byte
			switch v := rng.Intn(100); {
			case v < 55: // compressible: repeating word pattern
				val = make([]byte, mem.LineSize)
				tag := byte(rng.Intn(256))
				for j := 0; j < mem.LineSize; j += 4 {
					val[j] = tag
				}
			case v < 85: // incompressible
				val = make([]byte, mem.LineSize)
				rng.Read(val)
			default: // adversarial: data whose tail collides with a marker
				val = fault.CollidingLine(markers, a, rng)
			}
			err = r.write(0, a, val)
		case 5, 6, 7, 8: // load
			err = r.read(0, a)
		default: // force an eviction through the controller
			err = r.evict(a)
		}
		if err != nil {
			return err
		}
	}
	return r.drain()
}

// detectionDelta names the first fault-only counter that moved between two
// stat snapshots. Traffic-driven counters (Inversions, ReKeys, mispredicts)
// are deliberately excluded: they move in healthy runs too, so they cannot
// adjudicate a trial.
func detectionDelta(before, after *Stats) string {
	switch {
	case after.IntegrityErrs > before.IntegrityErrs:
		return "counter:integrity-errs"
	case after.UndecodableUnits > before.UndecodableUnits:
		return "counter:undecodable-units"
	case after.FallbackReads > before.FallbackReads:
		return "counter:fallback-reads"
	case after.LITSpills > before.LITSpills:
		return "counter:lit-spills"
	}
	return ""
}

// faultGroup lists the 4-line compression group containing a — the lines
// whose reads exercise every candidate home the injected fault can corrupt.
func faultGroup(a mem.LineAddr) []mem.LineAddr {
	base := a &^ 3
	return []mem.LineAddr{base, base + 1, base + 2, base + 3}
}

// faultTrial runs one trial against the rig's PTMC controller: inject a
// fault of kind at a line drawn from candidates, probe the attacked group,
// run traffic (if not nil), adjudicate, then scrub the group and re-verify
// the image so the next trial starts sound. ok is false when the injector
// had nothing to attack. The error reports an infrastructure failure (a
// wedged controller, a scrub that did not restore the image); a silent
// corruption is an outcome, not an error.
func (r *rig) faultTrial(in *fault.Injector, kind fault.Kind, candidates []mem.LineAddr,
	traffic func() error) (t FaultTrial, ok bool, err error) {

	p := r.ctrl.(*PTMC)
	before := *p.Stats()
	inj, ok := in.Inject(kind, candidates)
	if !ok {
		return t, false, nil
	}
	t.Injection = inj

	// Give the access-time detectors a chance: probe the attacked group,
	// then run more traffic.
	for _, m := range faultGroup(inj.Addr) {
		if err := r.read(0, m); err != nil {
			return t, true, err
		}
	}
	if traffic != nil {
		if err := traffic(); err != nil {
			return t, true, err
		}
	}

	if det := detectionDelta(&before, p.Stats()); det != "" {
		t.Outcome, t.Detector = FaultDetectedCounter, det
	} else if _, verr := p.VerifyImage(r.resident); verr != nil {
		t.Outcome, t.Detector = FaultDetectedVerify, fmt.Sprintf("verify:%v", verr)
	} else {
		// Counters quiet and the image verifies — but a fault under a
		// clean resident line is merely latent (memory is allowed to be
		// stale there). Flush the LLC so memory is authoritative again,
		// then read everything back: a late counter trip is still a
		// detection. Every line now resident is a clean copy memory has
		// just served, so the final verification excuses none of them; a
		// failure *now* is a silent-corruption bug.
		quiet := *p.Stats()
		if err := r.flushAll(); err != nil {
			return t, true, err
		}
		if err := r.sweep(); err != nil {
			return t, true, err
		}
		if det := detectionDelta(&quiet, p.Stats()); det != "" {
			t.Outcome, t.Detector = FaultDetectedCounter, det+" (latent)"
		} else if _, verr := p.VerifyImage(nil); verr != nil {
			t.Outcome, t.Detector = FaultSilent, fmt.Sprintf("verify-after-flush:%v", verr)
		} else {
			t.Outcome = FaultHarmless
		}
	}

	// Repair, so trials stay independent. Scrub rewrites the attacked
	// group from the architectural store (and writeRaw's LIT maintenance
	// clears any bogus entry planted there).
	p.Scrub(inj.Addr)
	if err := r.drain(); err != nil {
		return t, true, err
	}
	if _, verr := p.VerifyImage(r.resident); verr != nil {
		return t, true, fmt.Errorf("scrub after %v did not restore the image: %w", inj, verr)
	}
	return t, true, nil
}

// RunFaultCampaign interleaves random traffic with injected faults against
// a live PTMC controller and adjudicates every trial as detected, harmless,
// or silent. It returns an error only for infrastructure failures (a wedged
// controller, a repair that did not restore the invariant); silent
// corruptions are reported in the FaultReport for the caller to assert on.
func RunFaultCampaign(ctx context.Context, cfg FaultConfig) (*FaultReport, error) {
	cfg.setDefaults()

	var opts []PTMCOption
	if cfg.Dynamic {
		opts = append(opts, WithDynamic(1, 0.05, false))
	}
	r, err := buildRig(cache.Config{SizeBytes: cfg.LLCBytes, Assoc: 8},
		func(d *dram.DRAM, img, arch *mem.Store, llc LLC) Controller {
			return NewPTMC(d, img, arch, llc, cfg.Seed, opts...)
		})
	if err != nil {
		return nil, err
	}
	p := r.ctrl.(*PTMC)
	in := r.injector(cfg.Seed)
	rng := in.Rand()

	rep := &FaultReport{Config: cfg}

	var tr *obs.Tracer
	if cfg.Trace {
		tr = obs.NewTracer(0)
		p.SetTracer(tr)
	}
	var reg *obs.Registry
	if cfg.Metrics {
		reg = obs.NewRegistry()
		lbl := map[string]string{"campaign": "static"}
		if cfg.Dynamic {
			lbl["campaign"] = "dynamic"
		}
		st := p.Stats()
		reg.Counter("fault.trials", lbl, func() uint64 { return uint64(len(rep.Trials)) })
		reg.Counter("fault.detected_counter", lbl, func() uint64 { return uint64(rep.DetectedCounter) })
		reg.Counter("fault.detected_verify", lbl, func() uint64 { return uint64(rep.DetectedVerify) })
		reg.Counter("fault.harmless", lbl, func() uint64 { return uint64(rep.Harmless) })
		reg.Counter("fault.silent", lbl, func() uint64 { return uint64(rep.Silent) })
		reg.Counter("fault.integrity_errs", lbl, func() uint64 { return st.IntegrityErrs })
		reg.Counter("fault.undecodable_units", lbl, func() uint64 { return st.UndecodableUnits })
		reg.Counter("fault.fallback_reads", lbl, func() uint64 { return st.FallbackReads })
		reg.Counter("fault.lit_spills", lbl, func() uint64 { return st.LITSpills })
		reg.Counter("fault.rekeys", lbl, func() uint64 { return st.ReKeys })
		reg.Counter("fault.inversions", lbl, func() uint64 { return st.Inversions })
	}

	midTraffic := func() error { return r.traffic(rng, cfg.Lines, cfg.OpsPerTrial/2) }
	for trial := 0; trial < cfg.Trials; trial++ {
		if err := ctx.Err(); err != nil {
			return rep, fmt.Errorf("fault campaign: stopped after %d trials: %w", trial, err)
		}
		// Healthy traffic builds up compressed state to attack.
		if err := r.traffic(rng, cfg.Lines, cfg.OpsPerTrial); err != nil {
			return rep, fmt.Errorf("fault campaign: %w", err)
		}
		kind := cfg.Kinds[rng.Intn(len(cfg.Kinds))]
		t, ok, err := r.faultTrial(in, kind, r.img.TouchedLines(), midTraffic)
		if err != nil {
			return rep, fmt.Errorf("fault campaign: trial %d: %w", trial, err)
		}
		if !ok {
			continue // nothing to attack yet (first trials of a tiny config)
		}
		t.Trial = trial
		rep.Trials = append(rep.Trials, t)
		switch t.Outcome {
		case FaultDetectedCounter:
			rep.DetectedCounter++
		case FaultDetectedVerify:
			rep.DetectedVerify++
		case FaultHarmless:
			rep.Harmless++
		case FaultSilent:
			rep.Silent++
		}
		// One metrics window per adjudicated trial, stamped with the rig's
		// drain clock (monotone across trials).
		reg.Snapshot(r.now)
	}

	// Final health check: read everything back, verify, and record the
	// controller state.
	if err := r.sweep(); err != nil {
		return rep, fmt.Errorf("fault campaign: %w", err)
	}
	n, verr := p.VerifyImage(r.resident)
	if verr != nil {
		return rep, fmt.Errorf("fault campaign: final image verification failed: %w", verr)
	}
	rep.Verified = n
	rep.Stats = *p.Stats()
	if reg != nil {
		rep.Metrics = reg.Export()
	}
	if tr != nil {
		rep.TraceEvents = tr.Events()
		rep.TraceDropped = tr.Dropped()
	}
	return rep, nil
}
