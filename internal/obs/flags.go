package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Flags are the observability outputs a command can request: the metrics
// snapshot series, the controller-event trace and a live pprof endpoint.
// Bind them with BindFlags, or with BindArtifacts and BindPprof for a
// command that offers a subset.
type Flags struct {
	Metrics  string // -metrics: snapshot series JSON file
	Interval int64  // -metrics-interval: snapshot window in CPU cycles
	Trace    string // -trace: Chrome trace-event JSON file
	Pprof    string // -pprof: net/http/pprof listen address

	prog string // error-message prefix: the flag set's base name
}

// BindFlags binds -metrics, -metrics-interval, -trace and -pprof.
func (f *Flags) BindFlags(fs *flag.FlagSet) {
	f.BindArtifacts(fs)
	fs.Int64Var(&f.Interval, "metrics-interval", 10_000, "snapshot window in CPU cycles (with -metrics)")
	f.BindPprof(fs)
}

// BindArtifacts binds -metrics and -trace.
func (f *Flags) BindArtifacts(fs *flag.FlagSet) {
	f.prog = filepath.Base(fs.Name())
	fs.StringVar(&f.Metrics, "metrics", "", "write the metrics snapshot series to this JSON file")
	fs.StringVar(&f.Trace, "trace", "", "write controller events to this Chrome trace-event JSON file")
}

// BindPprof binds -pprof.
func (f *Flags) BindPprof(fs *flag.FlagSet) {
	f.prog = filepath.Base(fs.Name())
	fs.StringVar(&f.Pprof, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
}

// MetricsInterval is the Config.MetricsInterval the flags ask for: the
// -metrics-interval window when -metrics is set, else 0 (off).
func (f *Flags) MetricsInterval() int64 {
	if f.Metrics == "" {
		return 0
	}
	return f.Interval
}

// ServePprof starts the -pprof endpoint, if one was asked for, and
// announces it on stderr. A listen failure exits the process.
func (f *Flags) ServePprof() {
	if f.Pprof == "" {
		return
	}
	addr, err := StartPprof(f.Pprof)
	if err != nil {
		f.fatal(err)
	}
	fmt.Fprintf(os.Stderr, "pprof: http://%s/debug/pprof/\n", addr)
}

// Write writes one run's requested artifacts and prints the trace
// summary line. A failed write exits the process, so a requested
// -metrics or -trace file is never silently missing or truncated.
func (f *Flags) Write(m *MetricsDump, events []Event, dropped uint64) {
	if err := f.WriteFiles(m, events); err != nil {
		f.fatal(err)
	}
	if f.Trace != "" {
		fmt.Printf("trace: %d events (%d dropped) -> %s\n", len(events), dropped, f.Trace)
	}
}

// WriteFiles writes m to f.Metrics and events to f.Trace, skipping an
// empty path. Each file appears whole or not at all.
func (f *Flags) WriteFiles(m *MetricsDump, events []Event) error {
	if f.Metrics != "" {
		if err := writeAtomic(f.Metrics, m.WriteJSON); err != nil {
			return err
		}
	}
	if f.Trace != "" {
		return writeAtomic(f.Trace, func(w io.Writer) error { return WriteChromeTrace(w, events) })
	}
	return nil
}

func (f *Flags) fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", f.prog, err)
	os.Exit(1)
}

// writeAtomic writes path through path+".tmp" and renames it into place.
func writeAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp, path)
		}
		if err != nil {
			os.Remove(tmp)
		}
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
