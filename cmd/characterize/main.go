// Command characterize runs the one-time cell-library characterisation of
// the paper's Section 3.7: it sweeps the transistor-level simulator over
// grids of input transition times and skews for every library cell, fits the
// empirical K-coefficient formulas, and writes the resulting timing library
// as JSON.
//
// Usage:
//
//	characterize [-out lib05.json] [-fast] [-jobs N] [-stats] [-v]
//	             [-health] [-max-degraded F] [-retries N]
//	             [-resume] [-journal DIR] [-no-journal]
//	             [-shard-cells N] [-shard-workers M] [-shard-lease D]
//	             [-shard-max-attempts K] [-shard-dir DIR]
//	             [-shard-serve ADDR] [-shard-worker -coordinator URL [-worker-dir DIR]]
//	             [-inject kind] [-inject-rate F] [-inject-seed S] [-inject-persist]
//
// Campaigns are crash-safe by default: each completed cell is appended to a
// fsynced write-ahead journal (<out>.journal/), and -resume replays the
// journal so a killed campaign re-characterises at most the cell that was in
// flight. The output library and its integrity manifest are published
// atomically (temp file + fsync + rename); the journal is removed once the
// artefact is durable.
//
// -shard-cells enables the fault-tolerant sharded coordinator
// (internal/shard): the campaign splits into shards of that many cells,
// characterised by -shard-workers concurrent workers under -shard-lease
// leases; a worker that crashes or hangs loses its lease and the shard is
// retried (journals salvaged) up to -shard-max-attempts times before its
// cells fall back to the analytic model under the -max-degraded budget. The
// merged publish is byte-identical to an unsharded run, and -resume reuses
// every verified shard artefact in the campaign directory. Every mode checks
// each cell against the -max-degraded budget before it publishes anything.
//
// For multi-process and multi-machine campaigns, -shard-serve starts the
// campaign coordinator over HTTP (internal/shardnet) and -shard-worker runs
// a remote worker that pulls shards from -coordinator, characterises them
// locally under -worker-dir and sends verified artefacts back. Worker mode
// exits 0 when the campaign resolved, 2 when a lease was lost or reassigned
// (restart the worker), and 3 on fatal conditions retrying cannot fix (plan
// mismatch, unknown shard); see README "remote workers".
//
// The -inject* flags drive the deterministic fault-injection harness
// (internal/faultinject) for resilience testing: a seeded fraction of all
// solver time points is forced to fail, exercising the recovery, retry and
// graceful-degradation machinery end to end.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"time"

	"sstiming/internal/charlib"
	"sstiming/internal/core"
	"sstiming/internal/engine"
	"sstiming/internal/faultinject"
	"sstiming/internal/shard"
	"sstiming/internal/shardnet"
	"sstiming/internal/spice"
	"sstiming/internal/store"
)

func main() {
	out := flag.String("out", "lib05.json", "output library path")
	fast := flag.Bool("fast", false, "use the reduced characterisation grid")
	jobs := flag.Int("jobs", 0, "worker pool width (0 = all CPUs, 1 = serial)")
	stats := flag.Bool("stats", false, "print execution statistics to stderr")
	verbose := flag.Bool("v", false, "print progress")
	health := flag.Bool("health", false, "print the per-cell characterisation health summary to stderr")
	maxDegraded := flag.Float64("max-degraded", 0, "max tolerated fraction of degraded points per cell (0 = default 0.25, negative forbids)")
	retries := flag.Int("retries", 0, "per-point retry budget with tightened solver settings (0 = default 2, negative disables)")
	resume := flag.Bool("resume", false, "replay the campaign journal and characterise only the missing cells")
	journalDir := flag.String("journal", "", "campaign journal directory (default <out>.journal)")
	noJournal := flag.Bool("no-journal", false, "disable the write-ahead journal (campaign is not crash-safe)")
	injectKind := flag.String("inject", "", "fault kind to inject: noconv, nan or panic (empty disables)")
	injectRate := flag.Float64("inject-rate", 0.05, "fraction of solver time points faulted when -inject is set")
	injectSeed := flag.Int64("inject-seed", 1, "fault-injection plan seed")
	injectPersist := flag.Bool("inject-persist", false, "re-fire injected faults on recovery attempts too (defeats the solver ladder)")
	shardCells := flag.Int("shard-cells", 0, "enable the sharded coordinator: cells per shard (0 disables sharding)")
	shardWorkers := flag.Int("shard-workers", 0, "concurrent campaign workers in coordinator mode (0 = 2)")
	shardLease := flag.Duration("shard-lease", 0, "worker lease TTL before an unresponsive shard is reassigned (0 = 2m)")
	shardAttempts := flag.Int("shard-max-attempts", 0, "per-shard lease budget before quarantine (0 = 3)")
	shardDir := flag.String("shard-dir", "", "campaign directory for sharded runs (default <out>.campaign)")
	shardServe := flag.String("shard-serve", "", "serve the campaign coordinator on this address (host:port) for remote workers")
	shardWorker := flag.Bool("shard-worker", false, "remote worker mode: pull shards from -coordinator until the campaign resolves")
	coordinator := flag.String("coordinator", "", "coordinator base URL for -shard-worker (e.g. http://host:7600)")
	workerDir := flag.String("worker-dir", "", "remote worker's private local work directory (default <out>.workdir)")
	flag.Parse()

	var opts charlib.Options
	if *fast {
		opts = charlib.FastOptions()
	}
	// The shipped artefact carries the Section 3.6 extension surfaces;
	// consumers only use them behind their NCExtension flags.
	opts.NCPairs = true
	opts.Jobs = *jobs
	opts.Retries = *retries
	opts.MaxDegradedFrac = *maxDegraded
	if *stats {
		opts.Metrics = engine.NewMetrics()
	}
	if *verbose {
		opts.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	var plan *faultinject.Plan
	if *injectKind != "" {
		kind, err := spice.ParseFaultKind(*injectKind)
		if err != nil {
			fatal(err)
		}
		plan = faultinject.NewPlan(*injectSeed, *injectRate, kind, *injectPersist)
		opts.NewFaultHook = plan.NextHook
	}

	if *shardCells > 0 || *shardServe != "" || *shardWorker {
		runSharded(opts, shardConfig{
			out:         *out,
			dir:         *shardDir,
			cells:       *shardCells,
			workers:     *shardWorkers,
			lease:       *shardLease,
			maxAttempts: *shardAttempts,
			maxDegraded: *maxDegraded,
			resume:      *resume,
			serveAddr:   *shardServe,
			workerMode:  *shardWorker,
			coordinator: *coordinator,
			workerDir:   *workerDir,
			health:      *health,
			stats:       *stats,
		})
		return
	}

	// The campaign fingerprint pins every option that shapes the library
	// bytes; a -resume against a journal from a different campaign is
	// refused (store.ErrStale) instead of splicing incompatible results.
	resolved := opts.Resolved()
	fp := shard.Fingerprint(resolved)

	var journal *store.Journal
	if !*noJournal {
		dir := *journalDir
		if dir == "" {
			dir = *out + ".journal"
		}
		var err error
		var replayed map[string]*core.CellModel
		if *resume {
			if _, statErr := os.Stat(dir); os.IsNotExist(statErr) {
				fmt.Fprintf(os.Stderr, "characterize: no journal at %s, starting a fresh campaign\n", dir)
				journal, err = store.CreateJournal(dir, fp)
			} else {
				journal, replayed, err = store.ResumeJournal(dir, fp)
				if err == nil {
					fmt.Fprintf(os.Stderr, "characterize: resuming campaign, %d cell(s) replayed from journal\n", len(replayed))
				}
			}
		} else {
			journal, err = store.CreateJournal(dir, fp)
		}
		if err != nil {
			fatalResume(err, "journal")
		}
		opts.Completed = replayed
		opts.Checkpoint = journal.Append
	}

	lib, err := charlib.Characterize(opts)
	if plan != nil {
		fmt.Fprintf(os.Stderr, "fault injection: %d faults across %d transients (kind %s, rate %g, seed %d)\n",
			plan.Injected(), plan.Transients(), *injectKind, *injectRate, *injectSeed)
	}
	if *health && lib != nil {
		if werr := lib.WriteHealth(os.Stderr); werr != nil {
			fmt.Fprintln(os.Stderr, "characterize:", werr)
		}
	}
	if *stats {
		opts.Metrics.WriteText(os.Stderr)
	}
	if err != nil {
		fatal(err)
	}
	// Re-enforce the degradation budget over every cell, including the ones
	// replayed from the journal: a cell that slid over the budget must fail
	// the campaign with a non-zero exit, not ship a degraded artefact.
	if err := charlib.CheckDegradedBudget(lib, resolved.MaxDegradedFrac); err != nil {
		fatal(err)
	}

	if _, err := store.WriteLibrary(*out, lib, resolved.Grid, resolved.NCPairs); err != nil {
		fatal(err)
	}
	if journal != nil {
		// The artefact is durable; the checkpoints are spent.
		if err := journal.Remove(); err != nil {
			fmt.Fprintln(os.Stderr, "characterize: removing journal:", err)
		}
	}
	printWrote(*out, lib)

	if *verbose {
		fmt.Println("\nfit quality (ns domain):")
		names := make([]string, 0, len(lib.Cells))
		for name := range lib.Cells {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := lib.Cells[name]
			keys := make([]string, 0, len(m.Quality))
			for k := range m.Quality {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				q := m.Quality[k]
				fmt.Printf("  %-8s %-22s rms %.4f  max %.4f  R2 %.4f\n", name, k, q.RMS, q.Max, q.R2)
			}
		}
	}
}

// shardConfig carries the sharded-mode flag values.
type shardConfig struct {
	out         string
	dir         string
	cells       int
	workers     int
	lease       time.Duration
	maxAttempts int
	maxDegraded float64
	resume      bool
	serveAddr   string
	workerMode  bool
	coordinator string
	workerDir   string
	health      bool
	stats       bool
}

// Worker-mode exit codes (-shard-worker). Supervisors restart on
// exitLeaseLost (transient: the coordinator reassigned work) and stop on
// exitFatal (plan mismatch, unknown shard — retrying cannot help).
const (
	exitOK        = 0
	exitError     = 1
	exitLeaseLost = 2
	exitFatal     = 3
)

// workerExitCode maps a worker-mode error to its contract exit code.
func workerExitCode(err error) int {
	switch {
	case err == nil:
		return exitOK
	case errors.Is(err, shardnet.ErrLeaseLost):
		return exitLeaseLost
	case errors.Is(err, shardnet.ErrFatal),
		errors.Is(err, shard.ErrUnknownShard),
		errors.Is(err, store.ErrStale),
		errors.Is(err, store.ErrSchemaMismatch):
		return exitFatal
	default:
		return exitError
	}
}

// runSharded dispatches the sharded modes: the in-process coordinator
// (plan + workers + merge + publish), the networked coordinator and the
// remote worker.
func runSharded(opts charlib.Options, cfg shardConfig) {
	so := shard.Options{
		Charlib:            opts,
		Out:                cfg.out,
		Dir:                cfg.dir,
		Resume:             cfg.resume,
		ShardCells:         cfg.cells,
		Workers:            cfg.workers,
		LeaseTTL:           cfg.lease,
		MaxAttempts:        cfg.maxAttempts,
		MaxQuarantinedFrac: cfg.maxDegraded,
		Metrics:            opts.Metrics,
		Progress:           opts.Progress,
	}
	switch {
	case cfg.serveAddr != "":
		runServe(so, cfg)
	case cfg.workerMode:
		runRemoteWorker(so, cfg)
	default:
		lib, rep, err := shard.Run(so)
		finishCampaign(cfg, lib, rep, err, func(w io.Writer) { opts.Metrics.WriteText(w) })
	}
}

// runServe is the networked coordinator mode: the campaign's lease state
// machine served over HTTP for remote -shard-worker processes, then the
// merged, byte-identical publish once every shard resolves.
func runServe(so shard.Options, cfg shardConfig) {
	srv, err := shardnet.NewServer(shardnet.ServerOptions{Shard: so})
	if err != nil {
		fatalResume(err, "campaign directory")
	}
	ln, err := net.Listen("tcp", cfg.serveAddr)
	if err != nil {
		fatal(err)
	}
	srv.Start(ln)
	fmt.Fprintf(os.Stderr, "characterize: coordinator serving on http://%s (point workers at it with -coordinator)\n",
		ln.Addr())
	if err := srv.WaitResolved(context.Background()); err != nil {
		fatal(err)
	}
	lib, err := srv.MergeAndPublish()
	if err == nil {
		// Keep answering Done until every polling worker has heard it
		// (bounded by the lease TTL — a vanished worker must not wedge the
		// exit), so workers exit 0 instead of dying on connection-refused.
		dctx, cancel := context.WithTimeout(context.Background(), srv.Tracker().LeaseTTL())
		if derr := srv.DrainWorkers(dctx); derr != nil {
			fmt.Fprintln(os.Stderr, "characterize: coordinator exiting with workers still polling:", derr)
		}
		cancel()
		if serr := srv.Shutdown(context.Background()); serr != nil {
			fmt.Fprintln(os.Stderr, "characterize: coordinator shutdown:", serr)
		}
	}
	finishCampaign(cfg, lib, srv.Report(), err, srv.WriteMetrics)
}

// finishCampaign ends both coordinator modes alike: the campaign report,
// the health summary and counters when asked for, then the error (exit 1)
// or the published library.
func finishCampaign(cfg shardConfig, lib *core.Library, rep *shard.Report, err error, writeStats func(io.Writer)) {
	if rep != nil {
		fmt.Fprintf(os.Stderr, "campaign: %d shard(s), %d completed (%d reused), %d lease(s), "+
			"%d expired, %d retries, %d corrupt, %d duplicate(s) discarded\n",
			rep.Shards, rep.Completed, rep.Reused, rep.Leases,
			rep.Expired, rep.Retries, rep.CorruptArtifacts, rep.DuplicatesDiscarded)
		for _, id := range rep.Quarantined {
			fmt.Fprintf(os.Stderr, "campaign: shard %s quarantined; cells served from the analytic fallback\n", id)
		}
	}
	if cfg.health && lib != nil {
		if werr := lib.WriteHealth(os.Stderr); werr != nil {
			fmt.Fprintln(os.Stderr, "characterize:", werr)
		}
	}
	if cfg.stats {
		writeStats(os.Stderr)
	}
	if err != nil {
		fatalResume(err, "campaign directory")
	}
	printWrote(cfg.out, lib)
}

// runRemoteWorker is the remote worker mode: pull shards from the
// coordinator, characterise them in a private local work directory, send
// verified artefacts back, and exit with the worker exit-code contract.
func runRemoteWorker(so shard.Options, cfg shardConfig) {
	if cfg.coordinator == "" {
		fatal(errors.New("-shard-worker requires -coordinator URL"))
	}
	wdir := cfg.workerDir
	if wdir == "" {
		wdir = cfg.out + ".workdir"
	}
	so.Dir = wdir
	host, _ := os.Hostname()
	if host == "" {
		host = "worker"
	}
	progress := so.Progress
	if progress == nil {
		progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	rep, err := shardnet.RunWorker(context.Background(), shardnet.WorkerOptions{
		Client: shardnet.ClientOptions{
			Base:     cfg.coordinator,
			Metrics:  so.Metrics,
			Progress: so.Progress,
		},
		Shard:           so,
		Name:            fmt.Sprintf("%s-%d", host, os.Getpid()),
		ExitOnLeaseLost: true,
		Progress:        progress,
	})
	if rep != nil {
		fmt.Fprintf(os.Stderr, "worker: %d lease(s), %d completed, %d duplicate(s), "+
			"%d rejected, %d failed, %d lost\n",
			rep.Leases, rep.Completed, rep.Duplicates, rep.Rejected, rep.Failed, rep.LeaseLost)
	}
	if cfg.stats && so.Metrics != nil {
		so.Metrics.WriteText(os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "characterize:", err)
	}
	os.Exit(workerExitCode(err))
}

// printWrote reports a published library and its manifest.
func printWrote(out string, lib *core.Library) {
	fmt.Printf("wrote %s (%d cells, tech %s, Vdd %.2f V) + manifest %s\n",
		out, len(lib.Cells), lib.TechName, lib.Vdd, store.ManifestPath(out))
}

// fatalResume is fatal for an error that resumed state can cause: a journal
// or campaign directory written by another campaign or build adds the hint
// to start over.
func fatalResume(err error, state string) {
	fmt.Fprintln(os.Stderr, "characterize:", err)
	if errors.Is(err, store.ErrStale) || errors.Is(err, store.ErrSchemaMismatch) {
		fmt.Fprintf(os.Stderr, "characterize: rerun without -resume to discard the %s and start over\n", state)
	}
	os.Exit(1)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "characterize:", err)
	os.Exit(1)
}
