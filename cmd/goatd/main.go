// Command goatd is the distributed campaign fabric's process pair:
//
//	goatd serve -freq 1000 -journal campaign.jsonl   # coordinator
//	goatd work  -coord http://127.0.0.1:7780         # worker (run N of these)
//
// The coordinator shards the (kernel × tool) Table IV matrix into work
// units and leases them to workers over HTTP. Workers may crash, hang, or
// join late at any point: expired leases are reassigned with backoff,
// repeat offenders are quarantined as poison cells, and every completed
// cell is checkpointed to the journal so a restarted coordinator (same
// flags, same journal) resumes without re-running anything. When the
// matrix is merged, the coordinator prints the same Table IV and campaign
// health report the single-process harness would, plus the per-worker
// shard summary.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"goat/internal/fabric"
	"goat/internal/fault"
	"goat/internal/goker"
	"goat/internal/harness"
	"goat/internal/obs"
	"goat/internal/report"
	"goat/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = serve(os.Args[2:])
	case "work":
		err = work(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "goatd: unknown mode %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "goatd: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  goatd serve [flags]   start a campaign coordinator (see goatd serve -h)
  goatd work  [flags]   start a worker against a coordinator (see goatd work -h)`)
}

func serve(args []string) error {
	fs := flag.NewFlagSet("goatd serve", flag.ExitOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:7780", "listen address for the fabric protocol")
		freq       = fs.Int("freq", 1000, "per-(bug,tool) execution budget")
		seed       = fs.Int64("seed", 0, "base RNG seed")
		bugs       = fs.String("bugs", "", "comma-separated kernel IDs restricting the campaign (default: full suite)")
		faultSpec  = fs.String("faults", "", `fault-injection spec, e.g. "stall=2,cancel=1"`)
		budget     = fs.Duration("cellbudget", 0, "wall-clock watchdog per cell (0 = default 30s)")
		retries    = fs.Int("retries", 0, "fresh-seed retries for hung cells (0 = default 1, negative = none)")
		predict    = fs.Bool("predict", false, "add the predictive-detector POTENTIAL column")
		journal    = fs.String("journal", "", "checkpoint journal path; reuse it to resume an interrupted campaign")
		flightRec  = fs.String("flightrec", "", "archive workers' flight-recorder dumps of failed cells into this directory")
		leaseTTL   = fs.Duration("lease-ttl", 0, "work-unit lease duration (0 = derived from the cell budget)")
		maxAssigns = fs.Int("max-assigns", 0, "lease expiries before a cell is quarantined as poison (0 = default 3)")
		telem      = fs.Bool("telemetry", false, "live progress lines with a per-worker breakdown (stderr)")
		obsAddr    = fs.String("obs", "", "mount the observability endpoint (/metrics, /healthz) on this address")
	)
	fs.Parse(args)

	if *obsAddr != "" {
		telemetry.Enable()
		osrv := &obs.Server{}
		oaddr, err := osrv.Start(*obsAddr)
		if err != nil {
			return err
		}
		defer osrv.Close()
		fmt.Fprintf(os.Stderr, "goatd: observability endpoint on http://%s\n", oaddr)
	}

	faults, err := fault.ParseSpec(*faultSpec)
	if err != nil {
		return fmt.Errorf("bad -faults spec: %w", err)
	}
	kernels, err := goker.Select(*bugs)
	if err != nil {
		return err
	}
	hcfg := harness.Config{
		MaxExecs:     *freq,
		BaseSeed:     *seed,
		Faults:       faults,
		CellBudget:   *budget,
		Retries:      *retries,
		Kernels:      kernels,
		FlightRecDir: *flightRec,
	}
	if *predict {
		hcfg.Tools = harness.ToolsWithPredict()
	}
	job, err := fabric.NewJob(hcfg)
	if err != nil {
		return err
	}

	var progress *telemetry.Progress
	if *telem {
		telemetry.Enable()
		progress = telemetry.NewProgress(job.Cells())
	}
	coord, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
		Job:          job,
		JournalPath:  *journal,
		FlightRecDir: *flightRec,
		LeaseTTL:     *leaseTTL,
		MaxAssigns:   *maxAssigns,
		OnCell: func(worker string, c harness.Cell) {
			if progress == nil {
				return
			}
			if worker == "" {
				worker = "(coordinator)"
			}
			progress.CellDoneBy(worker, c.Found)
		},
	})
	if err != nil {
		return err
	}
	defer coord.Close()
	if resumed := coord.Snapshot().Done; resumed > 0 {
		fmt.Fprintf(os.Stderr, "goatd: resumed %d/%d cells from %s\n", resumed, job.Cells(), *journal)
		for i := 0; i < resumed && progress != nil; i++ {
			progress.CellDoneBy("(journal)", false)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: coord.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "goatd: serving %d cells (%d bugs × %d tools) on http://%s\n",
		job.Cells(), len(job.Bugs), len(job.Tools), ln.Addr())

	if progress != nil {
		stop := progress.Start(os.Stderr, 5*time.Second)
		defer stop()
	}

	// SIGINT flushes the partial table; the ticker drives lease sweeps so
	// a fleet of dead workers cannot stall the campaign's bookkeeping.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	interrupted := false
loop:
	for {
		select {
		case <-coord.Done():
			break loop
		case <-ctx.Done():
			interrupted = true
			break loop
		case <-tick.C:
			coord.Snapshot()
		}
	}

	tab := coord.Table()
	fmt.Println(tab)
	fmt.Println(report.CampaignHealth(tab))
	fmt.Print(coord.WorkerSummary())
	if interrupted {
		if *journal != "" {
			fmt.Fprintf(os.Stderr, "goatd: interrupted — rerun with -journal %s to resume\n", *journal)
		}
		return fmt.Errorf("campaign interrupted — partial results above")
	}
	return nil
}

func work(args []string) error {
	fs := flag.NewFlagSet("goatd work", flag.ExitOnError)
	var (
		coord     = fs.String("coord", "http://127.0.0.1:7780", "coordinator base URL")
		name      = fs.String("name", "", "worker name in leases and shard summaries (default: host:pid)")
		flightDir = fs.String("flightdir", "", "local scratch directory for flight-recorder dumps (default: a temp dir)")
		telem     = fs.Bool("telemetry", false, "enable the metrics registry for this worker")
		obsAddr   = fs.String("obs", "", "mount the observability endpoint (/metrics, /healthz) on this address")
	)
	fs.Parse(args)

	if *obsAddr != "" {
		telemetry.Enable()
		osrv := &obs.Server{}
		oaddr, err := osrv.Start(*obsAddr)
		if err != nil {
			return err
		}
		defer osrv.Close()
		fmt.Fprintf(os.Stderr, "goatd: observability endpoint on http://%s\n", oaddr)
	}

	if *name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if *telem {
		telemetry.Enable()
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	w := &fabric.Worker{
		Coord:     *coord,
		Name:      *name,
		FlightDir: *flightDir,
		OnCell: func(u fabric.Unit, c harness.Cell) {
			fmt.Fprintf(os.Stderr, "goatd[%s]: %s → %s\n", *name, u, c)
		},
	}
	fmt.Fprintf(os.Stderr, "goatd[%s]: working for %s\n", *name, *coord)
	err := w.Run(ctx)
	switch {
	case err == nil:
		fmt.Fprintf(os.Stderr, "goatd[%s]: campaign complete\n", *name)
		return nil
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(os.Stderr, "goatd[%s]: interrupted; in-flight lease will be reassigned\n", *name)
		return nil
	default:
		return err
	}
}
