// Command ptmcd is the simulation-as-a-service daemon: a crash-safe HTTP
// server that accepts experiment jobs (workload + scheme matrix + config),
// runs them on the shared worker pool, and survives kill -9 without losing
// accepted work (see internal/server and DESIGN.md "Crash-safe service").
//
// Serve (the default):
//
//	ptmcd -addr 127.0.0.1:8080 -data /var/lib/ptmcd
//
// On SIGTERM/SIGINT the daemon drains gracefully: stops accepting (503),
// cancels in-flight simulations at their next cycle checkpoint, checkpoints
// the durable queue, and exits 0. Jobs interrupted mid-run replay on the
// next boot and complete with byte-identical results.
//
// Client subcommands (for scripts; plain HTTP/JSON underneath):
//
//	ptmcd submit -server http://HOST -spec '{"workload":"lbm06",...}'
//	ptmcd status -server http://HOST -id JOBID
//	ptmcd wait   -server http://HOST -id JOBID [-timeout 10m]
//	ptmcd result -server http://HOST -id JOBID
//	ptmcd trace  -server http://HOST -id JOBID
//
// submit prints the job id on stdout; wait blocks until the job is
// terminal and exits non-zero if it failed; result streams the persisted
// result artifact to stdout; trace streams the Chrome-trace artifact of a
// job submitted with "trace": true.
//
// Every verb but trace also works on sweeps with -sweep: submit posts the
// spec to /sweeps, and status/wait/result address /sweeps/{id}.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ptmc/internal/obs"
	"ptmc/internal/server"
)

func main() {
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		if err := client(os.Args[1], os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "ptmcd:", err)
			os.Exit(1)
		}
		return
	}
	if err := serve(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ptmcd:", err)
		os.Exit(1)
	}
}

func serve(args []string) error {
	fs := flag.NewFlagSet("ptmcd", flag.ExitOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		addrFile = fs.String("addr-file", "", "write the bound address to this file (for scripts with -addr :0)")
		dir      = fs.String("data", "ptmcd-data", "durable job-store directory (WAL + results)")
		workers  = fs.Int("workers", 1, "concurrent jobs")
		parallel = fs.Int("parallel", 0, "scheme-simulation pool size (0 = GOMAXPROCS)")
		queue    = fs.Int("queue", 64, "max queued jobs before 503")
		quota    = fs.Int("tenant-quota", 0, "max queued+running jobs per tenant (0 = unlimited)")
		timeout  = fs.Duration("job-timeout", 0, "default per-scheme deadline (0 = none)")
		backoff  = fs.Duration("backoff", 100*time.Millisecond, "base delay before re-trying a failed store write (doubles per try, max 5s)")
		segBytes = fs.Int64("wal-segment", 0, "WAL segment rotation threshold in bytes (0 = default 4MiB)")
		drainT   = fs.Duration("drain-timeout", 30*time.Second, "max wait for in-flight jobs on shutdown")
	)
	var out obs.Flags
	out.BindPprof(fs)
	fs.Parse(args)
	out.ServePprof()

	srv, err := server.New(server.Config{
		Dir:          *dir,
		Workers:      *workers,
		Parallel:     *parallel,
		QueueCap:     *queue,
		TenantQuota:  *quota,
		JobTimeout:   *timeout,
		Backoff:      *backoff,
		SegmentBytes: *segBytes,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		// Atomic write: scripts poll for this file and must never read a
		// half-written address.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(bound+"\n"), 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			return err
		}
	}
	fmt.Printf("ptmcd: listening on %s (data %s, %d workers)\n", bound, *dir, *workers)

	hs := &http.Server{Handler: srv.Handler()}
	httpDone := make(chan error, 1)
	go func() { httpDone <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		fmt.Printf("ptmcd: %v: draining (stop accepting, cancel in-flight, checkpoint queue)\n", s)
	case err := <-httpDone:
		return fmt.Errorf("http server: %w", err)
	}

	dctx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	sdctx, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	_ = hs.Shutdown(sdctx)
	fmt.Println("ptmcd: drained cleanly")
	return nil
}

// client implements the thin HTTP subcommands.
func client(cmd string, args []string) error {
	fs := flag.NewFlagSet("ptmcd "+cmd, flag.ExitOnError)
	var (
		serverURL = fs.String("server", "http://127.0.0.1:8080", "daemon base URL")
		id        = fs.String("id", "", "job (or sweep, with -sweep) id")
		spec      = fs.String("spec", "", "job spec JSON (submit; - reads stdin)")
		sweepMode = fs.Bool("sweep", false, "operate on a sweep: submit posts to /sweeps, status/wait/result use /sweeps/{id}")
		timeout   = fs.Duration("timeout", 15*time.Minute, "wait deadline")
		poll      = fs.Duration("poll", 200*time.Millisecond, "wait poll interval")
	)
	fs.Parse(args)
	base := strings.TrimRight(*serverURL, "/")
	// Jobs and sweeps share the submit/status/wait/result verbs; only the
	// resource path differs.
	resource := base + "/jobs"
	if *sweepMode {
		resource = base + "/sweeps"
	}

	switch cmd {
	case "submit":
		body := *spec
		if body == "-" || body == "" {
			b, err := io.ReadAll(os.Stdin)
			if err != nil {
				return err
			}
			body = string(b)
		}
		resp, err := http.Post(resource, "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			return fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(data)))
		}
		var st struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(data, &st); err != nil {
			return fmt.Errorf("submit: bad response: %w", err)
		}
		fmt.Println(st.ID)
		return nil

	case "status":
		if *id == "" {
			return errors.New("status: -id is required")
		}
		return fetch(resource+"/"+*id, os.Stdout)

	case "result":
		if *id == "" {
			return errors.New("result: -id is required")
		}
		return fetch(resource+"/"+*id+"/result", os.Stdout)

	case "trace":
		if *id == "" {
			return errors.New("trace: -id is required")
		}
		if *sweepMode {
			return errors.New("trace: sweeps have no trace artifact (trace individual child jobs)")
		}
		return fetch(base+"/jobs/"+*id+"/trace", os.Stdout)

	case "metrics":
		return fetch(base+"/metrics", os.Stdout)

	case "wait":
		if *id == "" {
			return errors.New("wait: -id is required")
		}
		what := "job"
		if *sweepMode {
			what = "sweep"
		}
		deadline := time.Now().Add(*timeout)
		for {
			st, err := status(resource, *id)
			if err == nil {
				switch st.State {
				case "done":
					fmt.Println("done")
					return nil
				case "failed":
					return fmt.Errorf("%s failed (%s): %s", what, st.FailKind, st.Error)
				}
			}
			// Transient fetch errors (daemon restarting mid-wait) retry
			// until the deadline: crash recovery is the point.
			if time.Now().After(deadline) {
				if err != nil {
					return fmt.Errorf("wait: %w", err)
				}
				return fmt.Errorf("wait: timed out (%s)", *id)
			}
			time.Sleep(*poll)
		}

	default:
		return fmt.Errorf("unknown subcommand %q (want submit|status|wait|result|trace|metrics)", cmd)
	}
}

// waitStatus is the subset of job/sweep status that wait needs; both
// resources serve it under the same field names.
type waitStatus struct {
	State    string `json:"state"`
	FailKind string `json:"fail_kind"`
	Error    string `json:"error"`
}

func status(resource, id string) (*waitStatus, error) {
	resp, err := http.Get(resource + "/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status: %s", resp.Status)
	}
	var st waitStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

func fetch(url string, w io.Writer) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	_, err = io.Copy(w, resp.Body)
	return err
}
