package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"syscall"
	"time"

	"ptmc"
	"ptmc/internal/sim"
)

// setupsPerRun is how many timed assemblies of the simulator each child
// makes; the last one is the one that runs. Set-up takes milliseconds, so
// one sample per run would be mostly timer and page-fault noise.
const setupsPerRun = 10

// minRuns is the fewest measured runs a timed invocation makes, however
// short --seconds is.
const minRuns = 3

// runReport is what one child process reports about its simulation.
type runReport struct {
	Err          string    `json:"err,omitempty"`
	SetupS       []float64 `json:"setup_s"`
	WallS        float64   `json:"wall_s"` // host wall time of Run
	CPUS         float64   `json:"cpu_s"`  // host user+sys CPU time of Run (all threads)
	Instructions int64     `json:"instructions"`
	Fingerprint  string    `json:"fingerprint"`
	Integrity    uint64    `json:"integrity_errs"`
	Degradations uint64    `json:"degradations"`
	IPC          float64   `json:"ipc"`
	BurstsPerKI  float64   `json:"bursts_per_kinst"`
	Layers       *layers   `json:"layers,omitempty"`

	// Filled in by the parent from the child's rusage.
	PeakMB float64 `json:"-"`
}

// cpuSeconds returns this process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// childProcs is the GOMAXPROCS of a measured run. The simulator is
// single-threaded; with a second P the garbage collector runs beside it,
// which on the 2-vCPU VM this benchmark was tuned on drew hypervisor steal
// and made run times swing by a third. One P keeps each run on one vCPU.
const childProcs = 1

// childMain runs one simulation of w and writes its runReport to stdout.
func childMain(w *spec, seed int64, traced bool) int {
	runtime.GOMAXPROCS(childProcs)
	rep := runOnce(w, seed, traced)
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	return 0
}

func runOnce(w *spec, seed int64, traced bool) *runReport {
	rep := &runReport{}
	cfg := w.configFor(seed)
	var tr *tracer
	if traced {
		var err error
		if tr, err = newTracer(cfg); err != nil {
			rep.Err = err.Error()
			return rep
		}
		tr.attach(&cfg)
	}
	// One untimed assembly first: the process's first one also pays for
	// faulting in fresh heap, which says more about the host than about
	// sim.New. Each timed one starts from a collected heap.
	if _, err := sim.New(cfg); err != nil {
		rep.Err = err.Error()
		return rep
	}
	var s *sim.Simulator
	for i := 0; i < setupsPerRun; i++ {
		if tr != nil {
			tr.reset() // only the last assembly's streams run
		}
		s = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		s, err = sim.New(cfg)
		rep.SetupS = append(rep.SetupS, time.Since(t0).Seconds())
		if err != nil {
			rep.Err = err.Error()
			return rep
		}
	}
	c0, t0 := cpuSeconds(), time.Now()
	res, err := s.Run()
	rep.WallS = time.Since(t0).Seconds()
	rep.CPUS = cpuSeconds() - c0
	if err != nil {
		rep.Err = err.Error()
		return rep
	}
	rep.Instructions = int64(cfg.Cores) * (cfg.WarmupInstr + cfg.MeasureInstr)
	rep.Fingerprint = fingerprint(res)
	rep.Integrity = res.Mem.IntegrityErrs
	rep.Degradations = res.Mem.Degradations()
	rep.IPC = res.IPC()
	rep.BurstsPerKI = float64(res.DRAM.Reads+res.DRAM.Writes) / (float64(res.Instructions) / 1000)
	if tr != nil {
		rep.Layers = tr.replay(cfg, res)
	}
	return rep
}

// fingerprint hashes every modelled statistic of a Result. The
// observability fields (metrics series, trace events) are excluded: they
// depend on what was switched on, not on what was simulated.
func fingerprint(r *ptmc.Result) string {
	c := *r
	c.Metrics, c.TraceEvents, c.TraceDropped = nil, nil, 0
	b, err := json.Marshal(&c)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// child runs one simulation in a fresh process, so peak memory (the
// child's maxrss) belongs to that run alone.
func child(w *spec, seed int64, mode string) (*runReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed), "-child", mode)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", mode, err)
	}
	rep := &runReport{}
	if err := json.Unmarshal(out.Bytes(), rep); err != nil {
		return nil, fmt.Errorf("%s child output: %w", mode, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rep.PeakMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return rep, nil
}

// gate is the correctness check every run passes through. It returns why
// a run failed, or "" for a correct run. ref is the fingerprint the run
// must reproduce: the pinned one at the default seed, else the first
// correct run's of this invocation.
func gate(w *spec, seed int64, rep *runReport, ref *string) string {
	switch {
	case rep.Err != "":
		return rep.Err
	case rep.Integrity > 0:
		return fmt.Sprintf("%d integrity errors", rep.Integrity)
	case rep.Degradations > 0:
		return fmt.Sprintf("%d degradations", rep.Degradations)
	}
	if *ref == "" {
		if seed == defaultSeed && w.ref != "" {
			*ref = w.ref
		} else {
			*ref = rep.Fingerprint
		}
	}
	if rep.Fingerprint != *ref {
		return fmt.Sprintf("fingerprint %s, want %s", rep.Fingerprint, *ref)
	}
	return ""
}

// runs starts children of the given mode one after another for seconds (at
// least min of them) and returns the correct ones with the counts of runs
// attempted and failed. A child that crashes is a failed run. It starts no
// child that the last one's duration says would end past the deadline, so
// an invocation lasts about seconds whatever the workload.
func runs(w *spec, seed int64, seconds float64, min int, mode string, ref *string) (ok []*runReport, attempted, failed int) {
	start := time.Now()
	var last float64 // wall seconds of the last child, process start to exit
	for attempted < min || time.Since(start).Seconds()+last <= seconds {
		attempted++
		t0 := time.Now()
		rep, err := child(w, seed, mode)
		last = time.Since(t0).Seconds()
		why := ""
		if err != nil {
			why = err.Error()
		} else {
			why = gate(w, seed, rep, ref)
		}
		if why != "" {
			failed++
			fmt.Printf("run %d FAILED: %s\n", attempted, why)
			continue
		}
		ok = append(ok, rep)
	}
	return ok, attempted, failed
}

// timed is the --trace 0 mode: end-to-end metrics as medians of runs.
func timed(w *spec, seed int64, seconds float64) (*summary, error) {
	var ref string
	ok, attempted, failed := runs(w, seed, seconds, minRuns, "timed", &ref)
	if len(ok) == 0 {
		return nil, fmt.Errorf("all %d runs failed", attempted)
	}
	var mips, mipsCPU, setup, peak []float64
	var inst, wall, cpu float64
	for _, r := range ok {
		mips = append(mips, float64(r.Instructions)/r.WallS/1e6)
		mipsCPU = append(mipsCPU, float64(r.Instructions)/r.CPUS/1e6)
		setup = append(setup, r.SetupS...)
		peak = append(peak, r.PeakMB)
		inst, wall, cpu = inst+float64(r.Instructions), wall+r.WallS, cpu+r.CPUS
	}
	sum := &summary{correct: failed == 0, attempted: attempted, failed: failed}
	sum.throughput("sim_minst_per_s", "Minst/s", inst/wall/1e6, mips)
	sum.throughput("sim_minst_per_cpu_s", "Minst/cpu-s", inst/cpu/1e6, mipsCPU)
	sum.timing("setup_s", "s", setup)
	sum.timing("peak_mem_mb", "MB", peak)
	// Modelled metrics: every correct run has the same fingerprint, so
	// these are the same in every run.
	sum.add("sim_ipc", "inst/cycle", ok[0].IPC)
	sum.add("dram_bursts_per_kinst", "bursts/kinst", ok[0].BurstsPerKI)
	fmt.Printf("fingerprint %s (%s, seed %d)\n", ok[0].Fingerprint, w.name, seed)
	return sum, nil
}

// summary is the benchmark's result: the final JSON line plus the
// human-readable lines printed before it.
type summary struct {
	correct           bool
	attempted, failed int
	names             []string
	metrics           map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (s *summary) add(name, unit string, v float64) {
	if s.metrics == nil {
		s.metrics = map[string]metric{}
	}
	s.names = append(s.names, name)
	s.metrics[name] = metric{Value: v, Unit: unit}
}

// timing records the median of samples and prints the sample count and,
// with enough samples, the 90th percentile.
func (s *summary) timing(name, unit string, samples []float64) {
	med := quantile(samples, 0.5)
	line := fmt.Sprintf("%-24s median %.6g %s  n=%d  min %.6g  max %.6g", name, med, unit,
		len(samples), quantile(samples, 0), quantile(samples, 1))
	if len(samples) >= 20 { // ten samples beyond the 90th percentile
		line += fmt.Sprintf("  p90 %.6g", quantile(samples, 0.9))
	}
	fmt.Println(line)
	s.add(name, unit, med)
}

// throughput records a rate over the whole invocation, all simulated
// instructions over all measured seconds, and prints the per-run rates'
// median and range beside it. The host's speed drifts by a quarter over
// minutes; a median of per-run rates follows whichever stretch most runs
// fell in, while the whole-run rate weighs every second alike.
func (s *summary) throughput(name, unit string, whole float64, perRun []float64) {
	fmt.Printf("%-24s whole-run %.6g %s  per-run median %.6g  n=%d  min %.6g  max %.6g\n", name, whole, unit,
		quantile(perRun, 0.5), len(perRun), quantile(perRun, 0), quantile(perRun, 1))
	s.add(name, unit, whole)
}

func (s *summary) print(w io.Writer) error {
	for _, n := range s.names {
		m := s.metrics[n]
		fmt.Fprintf(w, "%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	b, err := json.Marshal(map[string]any{
		"correct":   s.correct,
		"attempted": s.attempted,
		"failed":    s.failed,
		"metrics":   s.metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// layerNames lists the attributed layers bottom-up; the engine loop ("sim")
// is the residual.
var layerNames = []string{"workload", "vm", "mem", "cache", "cpu", "memctrl", "core", "compress", "dram"}

// traced is the --trace 1 mode: one traced run with isolated replays, then
// untraced runs until seconds have passed, whose median CPU time is the
// base the layers' self times are attributed against.
func traced(w *spec, seed int64, seconds float64) (*summary, error) {
	var ref string
	tr, err := child(w, seed, "traced")
	if err != nil {
		return nil, err
	}
	attempted, failed := 1, 0
	if why := gate(w, seed, tr, &ref); why != "" {
		failed++
		fmt.Printf("traced run FAILED: %s\n", why)
	}
	ok, n, f := runs(w, seed, seconds, 1, "timed", &ref)
	attempted, failed = attempted+n, failed+f
	if len(ok) == 0 || tr.Layers == nil {
		return nil, fmt.Errorf("no correct run to attribute against")
	}
	var cpus []float64
	for _, r := range ok {
		cpus = append(cpus, r.CPUS)
	}
	cpu := quantile(cpus, 0.5)
	sum := &summary{correct: failed == 0, attempted: attempted, failed: failed}
	L := tr.Layers
	names := make([]string, 0, len(L.Values))
	for k := range L.Values {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		sum.add(k, L.Values[k].Unit, L.Values[k].Value)
	}
	var attributed float64
	for _, l := range layerNames {
		self := L.SelfS[l]
		attributed += self
		sum.add(l+".share", "frac", self/cpu)
	}
	residual := cpu - attributed
	sum.add("sim.residual_s", "s", residual)
	sum.add("sim.share", "frac", residual/cpu)
	sum.add("attribution.residual_frac", "frac", residual/cpu)
	sum.add("attribution.cpu_s", "s", cpu)
	sum.add("attribution.tracing_overhead_frac", "frac", (tr.CPUS-cpu)/cpu)
	fmt.Printf("traced run cpu %.3fs vs untraced median %.3fs over %d runs; fingerprint %s\n",
		tr.CPUS, cpu, len(cpus), tr.Fingerprint)
	return sum, nil
}
