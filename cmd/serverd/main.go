// Command serverd serves keyword search over RDF data as an HTTP/JSON
// API — the production face of the SearchWebDB reproduction. It loads a
// dataset (from a file, a snapshot, or the built-in generators), builds
// the indexes once, seals the backend read-only, and serves concurrent
// search/execute/explain traffic with a byte-bounded result cache
// (-cache-mb), request deadlines, and Prometheus metrics.
//
// With -snapshot pointing at an engine file written by buildindex
// -snapshot, the server cold-starts by mmapping the built indexes — no
// ordering sort, posting build, or summary derivation — and is serving
// in milliseconds. -snapshot-mode picks the byte backing (mmap with lazy
// page-in, or heap); -snapshot-verify=false skips the per-section
// checksum pass so open time does not grow with the file.
//
// With -wal DIR the backend is live instead of sealed: POST /v1/ingest
// accepts triples (JSON, NDJSON, or N-Triples), each batch is written
// to a checksummed write-ahead log under DIR before it is acknowledged
// (-fsync picks the durability policy), and an epoch swap merges the
// accumulated delta into the indexes every -epoch-max-delta triples.
// On boot the server replays any acknowledged batches in DIR over the
// optional -snapshot base; /healthz reports {"status":"replaying"} with
// progress (503) until the recovered state is servable. -wal boots from
// the snapshot and/or the log itself — -data/-turtle/-gen do not compose
// with it.
//
// -checkpoint-interval / -checkpoint-wal-bytes run a background
// checkpointer that snapshots the merged state into DIR, commits a
// MANIFEST naming the covered WAL prefix, and truncates the covered
// segments, bounding both disk usage and replay time; POST
// /v1/checkpoint forces one on demand. If a MANIFEST is present on
// boot it supersedes -snapshot. -retention gives every ingested triple
// a default TTL (per-batch "ttl" in the ingest request overrides);
// expired triples are dropped at the next major merge and never
// survive a checkpoint. Disk faults degrade the server instead of
// corrupting it: a failed WAL fsync poisons the log (writes refused
// with 503 "read_only_disk" until restart), and persistent ENOSPC
// turns into 503 "disk_full" backpressure then read-only degradation —
// reads keep flowing in both cases, and /healthz reports the reason.
//
// Usage:
//
//	serverd -data dblp.nt -addr :8080
//	serverd -snapshot dblp.swdb -addr :8080
//	serverd -gen dblp -scale 2000 -addr :8080
//	serverd -wal /var/lib/swdb/wal -addr :8080
//	serverd -snapshot dblp.swdb -wal /var/lib/swdb/wal -fsync interval -addr :8080
//
// Endpoints:
//
//	POST /v1/search   {"keywords": ["cimiano", "2006"], "k": 5}
//	POST /v1/execute  {"id": "<candidate id>"} | {"keywords": [...], "rank": 0} | {"query": {...}}
//	                  (Accept: application/x-ndjson streams the answers)
//	POST /v1/explain  same request shape as /v1/execute
//	POST /v1/ingest   {"s": {...}, "p": {...}, "o": {...}} | {"triples": [...], "ttl": "24h"}
//	                  (Content-Type application/x-ndjson: one triple per line;
//	                  application/n-triples: raw N-Triples; ?ttl=24h works on
//	                  every encoding — needs -wal)
//	POST /v1/checkpoint  force a checkpoint now: snapshot + MANIFEST + WAL
//	                  truncation; returns the committed low-water mark (needs -wal)
//	GET  /healthz     liveness and dataset size
//	GET  /stats       cache, pool, traffic, latency, and runtime statistics (JSON)
//	GET  /metrics     Prometheus text format (latency histograms, runtime gauges)
//	GET  /debug/slowlog   N slowest + N most recent erroring requests with span trees
//	GET  /debug/buildinfo binary build metadata (go version, VCS revision)
//	GET  /debug/pprof/* runtime profiles (only with -pprof)
//
// Appending ?trace=1 to any /v1 request returns the request's span tree
// inline in the response (field "trace").
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	repro "repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/ingest"
	"repro/internal/rdf"
	"repro/internal/scoring"
	"repro/internal/server"
	"repro/internal/snapfmt"
	"repro/internal/snapshot"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	data := flag.String("data", "", "RDF input file (N-Triples)")
	turtle := flag.String("turtle", "", "RDF input file (Turtle)")
	snapPath := flag.String("snapshot", "", "boot from an engine snapshot file written by buildindex -snapshot (maps in milliseconds)")
	snapMode := flag.String("snapshot-mode", "auto", "snapshot byte backing: auto | mmap | heap")
	snapVerify := flag.Bool("snapshot-verify", true, "verify per-section checksums when loading a snapshot (disable for lazy paging of files larger than RAM)")
	walDir := flag.String("wal", "", "write-ahead log directory: serve a live backend with POST /v1/ingest, replaying any acknowledged batches found there on boot")
	fsyncFlag := flag.String("fsync", "always", "WAL durability policy: always (fsync before every ack) | interval (background cadence) | never (needs -wal)")
	fsyncInterval := flag.Duration("fsync-interval", 50*time.Millisecond, "sync cadence for -fsync interval")
	epochMaxDelta := flag.Int("epoch-max-delta", 0, "delta triples that trigger an epoch swap, merging the delta into the indexes (0 = 50000; needs -wal)")
	walSegmentBytes := flag.Int64("wal-segment-bytes", 0, "WAL segment roll size in bytes (0 = default; needs -wal)")
	checkpointInterval := flag.Duration("checkpoint-interval", 0, "background checkpoint cadence: snapshot the merged state, commit a MANIFEST, truncate covered WAL segments (0 = no time trigger; needs -wal)")
	checkpointWALBytes := flag.Int64("checkpoint-wal-bytes", 0, "checkpoint once the WAL exceeds this many bytes (0 = no size trigger; needs -wal)")
	retention := flag.Duration("retention", 0, "default TTL for ingested triples — expired triples are dropped at the next major merge and never survive a checkpoint; per-batch \"ttl\" overrides (0 = keep forever; needs -wal)")
	crashPointFlag := flag.String("crash-point", "", "TESTING ONLY: arm a named crash point as \"point[:after]\" — the process SIGKILLs itself the (after+1)-th time the point is hit (needs -wal; see internal/faultinject.CrashPoints)")
	diskFaultFlag := flag.String("disk-fault", "", "TESTING ONLY: inject a filesystem error as \"op:errno[:after[:times]]\" — ops wal.write|wal.sync|checkpoint.write|checkpoint.sync, errno eio|enospc (needs -wal; see internal/faultinject.DiskOps)")
	gen := flag.String("gen", "", "generate a dataset instead: dblp | lubm | tap")
	scale := flag.Int("scale", 1000, "scale for -gen")
	k := flag.Int("k", 10, "default number of query candidates")
	scheme := flag.String("scoring", "c3", "scoring function: c1 | c2 | c3")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "how long shutdown waits for in-flight requests to drain")
	maxBodyBytes := flag.Int64("max-body-bytes", 1<<20, "request-body cap on the /v1 POST endpoints (larger bodies are answered 413)")
	workers := flag.Int("workers", 0, "max concurrent query computations (default 2×GOMAXPROCS)")
	parallelism := flag.Int("parallelism", 0, "max goroutines per query for per-keyword stages: lookups, oracle build (default GOMAXPROCS)")
	oracle := flag.String("oracle", "auto", "Sec. IX distance-oracle pruning: auto | on | off")
	cacheMB := flag.Int64("cache-mb", 8, "result-cache budget in MiB of estimated heap, summed over cached searches; a candidate id resolves while its search is cached")
	cacheTTL := flag.Duration("cache-ttl", 0, "max age of cached results (0 = no expiry; set for datasets that get swapped)")
	timeout := flag.Duration("timeout", 10*time.Second, "default per-request deadline")
	maxTimeout := flag.Duration("max-timeout", 60*time.Second, "cap on client-requested deadlines")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (CPU/heap/mutex profiles of the live server)")
	slowlogSize := flag.Int("slowlog-size", 32, "slow-query log capacity: keeps the N slowest and N most recent erroring requests (0 = default, negative disables)")
	slowlogThreshold := flag.Duration("slowlog-threshold", 100*time.Millisecond, "minimum latency for a request to enter the slow-query log (0 = keep every request)")
	flag.Parse()

	cfg := repro.Config{K: *k, Parallelism: *parallelism}
	switch strings.ToLower(*oracle) {
	case "auto", "":
		cfg.Oracle = core.OracleAuto
	case "on":
		cfg.Oracle = core.OracleOn
	case "off":
		cfg.Oracle = core.OracleOff
	default:
		log.Fatalf("unknown -oracle mode %q (want auto, on, or off)", *oracle)
	}
	switch strings.ToLower(*scheme) {
	case "c1":
		cfg.Scoring = scoring.PathLength
	case "c2":
		cfg.Scoring = scoring.Popularity
	case "c3", "":
		cfg.Scoring = scoring.Matching
	default:
		log.Fatalf("unknown scoring %q", *scheme)
	}

	var mode snapfmt.Mode
	switch strings.ToLower(*snapMode) {
	case "auto", "":
		mode = snapfmt.ModeAuto
	case "mmap":
		mode = snapfmt.ModeMmap
	case "heap":
		mode = snapfmt.ModeHeap
	default:
		log.Fatalf("unknown -snapshot-mode %q (want auto, mmap, or heap)", *snapMode)
	}
	loadOpts := snapshot.LoadOptions{Mode: mode, SkipVerify: !*snapVerify}

	if *walDir != "" {
		if *data != "" || *turtle != "" || *gen != "" {
			log.Fatal("-wal boots from -snapshot and/or the log itself; load data through POST /v1/ingest or bake a base snapshot with buildindex")
		}
	} else {
		switch {
		case *crashPointFlag != "":
			log.Fatal("-crash-point instruments the WAL/epoch write path and needs -wal")
		case *diskFaultFlag != "":
			log.Fatal("-disk-fault injects WAL/checkpoint filesystem errors and needs -wal")
		case *checkpointInterval > 0 || *checkpointWALBytes > 0:
			log.Fatal("-checkpoint-interval/-checkpoint-wal-bytes compact the write-ahead log and need -wal")
		case *retention > 0:
			log.Fatal("-retention expires live-ingested triples and needs -wal")
		case *walSegmentBytes > 0:
			log.Fatal("-wal-segment-bytes sizes write-ahead log segments and needs -wal")
		}
	}

	var (
		backend  *repro.Engine
		snapInfo *snapshot.Info
	)
	switch {
	case *walDir != "":
		// Live path: ingest.Boot below loads the snapshot (if any) and
		// replays the log; nothing to build here.
	case *snapPath != "":
		eng, info, err := snapshot.LoadEngine(*snapPath, cfg, loadOpts)
		if err != nil {
			log.Fatal(err)
		}
		backend, snapInfo = eng, info
		log.Printf("booted engine from snapshot %s in %v (%s-backed, format v%d, %.1f MB) — no index rebuild",
			*snapPath, info.LoadDuration.Round(time.Microsecond), info.Mode, info.FormatVersion, float64(info.TotalBytes)/(1<<20))
	default:
		backend = repro.New(cfg)
		loadStart := time.Now()
		loadFile := func(path string, load func(io.Reader) (int, error), what string) {
			f, err := os.Open(path)
			if err != nil {
				log.Fatal(err)
			}
			n, err := load(f)
			f.Close()
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("loaded %d triples from %s %s in %v", n, what, path, time.Since(loadStart).Round(time.Millisecond))
		}
		switch {
		case *data != "":
			loadFile(*data, backend.LoadNTriples, "N-Triples file")
		case *turtle != "":
			loadFile(*turtle, backend.LoadTurtle, "Turtle file")
		case *gen != "":
			var triples int
			emit := func(t rdf.Triple) { backend.AddTriple(t); triples++ }
			switch *gen {
			case "dblp":
				datagen.DBLP(datagen.DBLPConfig{Publications: *scale, Seed: 1}, emit)
			case "lubm":
				datagen.LUBM(datagen.LUBMConfig{Universities: *scale, Seed: 1}, emit)
			case "tap":
				datagen.TAP(datagen.TAPConfig{InstancesPerClass: *scale, Seed: 1}, emit)
			default:
				log.Fatalf("unknown dataset %q (want dblp, lubm, or tap)", *gen)
			}
			log.Printf("generated %d %s triples (scale %d) in %v", triples, *gen, *scale, time.Since(loadStart).Round(time.Millisecond))
		default:
			fmt.Fprintln(os.Stderr, "serverd: need one of -data, -turtle, -snapshot, or -gen")
			flag.Usage()
			os.Exit(2)
		}
	}
	buildStart := time.Now()
	serverCfg := server.Config{
		Workers:          *workers,
		CacheBytes:       *cacheMB << 20,
		CacheTTL:         *cacheTTL,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTimeout,
		SlowlogSize:      *slowlogSize,
		SlowlogThreshold: *slowlogThreshold,
		MaxBodyBytes:     *maxBodyBytes,
	}
	wrapPprof := func(h http.Handler) http.Handler {
		if !*pprofFlag {
			return h
		}
		// Production hot-path profiles one `go tool pprof` away:
		//   go tool pprof http://host:8080/debug/pprof/profile?seconds=10
		// Gate behind a flag — the endpoints expose internals and add a
		// mux branch, so they are opt-in.
		mux := http.NewServeMux()
		mux.Handle("/", h)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Print("pprof enabled on /debug/pprof/")
		return mux
	}

	// The server behind the listener. On the live path it appears only
	// once WAL replay finishes, so shutdown reads it through the pointer.
	var (
		srvPtr  atomic.Pointer[server.Server]
		ckptPtr atomic.Pointer[ingest.Checkpointer]
		handler http.Handler
	)
	if *walDir != "" {
		policy, err := ingest.ParseFsyncPolicy(*fsyncFlag)
		if err != nil {
			log.Fatal(err)
		}
		var crash *faultinject.CrashSet
		if *crashPointFlag != "" {
			point, afterStr, _ := strings.Cut(*crashPointFlag, ":")
			after := 0
			if afterStr != "" {
				if after, err = strconv.Atoi(afterStr); err != nil {
					log.Fatalf("-crash-point %q is not \"point[:after]\": %v", *crashPointFlag, err)
				}
			}
			crash = faultinject.NewCrashSet()
			crash.Handler = func(point string) {
				log.Printf("crash point %s fired — SIGKILL", point)
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
			if err := crash.Arm(point, after); err != nil {
				log.Fatal(err)
			}
			log.Printf("WARNING: crash point %s ARMED (fires on hit %d) — this process will kill itself; never run production traffic with -crash-point", point, after+1)
		}
		var disk *faultinject.DiskSet
		if *diskFaultFlag != "" {
			disk, err = faultinject.ParseDiskFault(*diskFaultFlag)
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("WARNING: disk fault %s ARMED — this process deliberately fails WAL/checkpoint I/O; never run production traffic with -disk-fault", *diskFaultFlag)
		}
		// Listen immediately: the gate answers 503 with replay progress
		// on /healthz until the recovered state is servable.
		gate := server.NewGate()
		handler = gate
		bootCfg := ingest.BootConfig{
			SnapshotPath: *snapPath,
			WALDir:       *walDir,
			Live: ingest.Config{
				Engine:        cfg,
				EpochMaxDelta: *epochMaxDelta,
				Retention:     *retention,
				Crash:         crash,
				Disk:          disk,
			},
			WAL: ingest.WALOptions{
				Fsync:         policy,
				FsyncInterval: *fsyncInterval,
				SegmentBytes:  *walSegmentBytes,
			},
			Snapshot: loadOpts,
			Progress: gate.SetProgress,
		}
		go func() {
			l, info, err := ingest.Boot(bootCfg)
			if err != nil {
				log.Fatalf("wal boot refused: %v", err)
			}
			scfg := serverCfg
			scfg.Live = l
			scfg.Snapshot = info.SnapshotInfo
			srv := server.New(l, scfg, runtime.GOMAXPROCS(0))
			srvPtr.Store(srv)
			gate.Ready(wrapPprof(srv.Handler()))
			repaired := ""
			if info.RepairedBytes > 0 {
				repaired = fmt.Sprintf("; repaired a %d-byte torn tail in %s", info.RepairedBytes, info.RepairedFile)
			}
			log.Printf("live backend up from %s in %v: %d triples at epoch %d (replayed %d batches, %d triples%s); fsync=%s, epoch swap at %d delta triples",
				info.Source, info.BootDuration.Round(time.Millisecond), l.NumTriples(), l.Epoch(),
				info.ReplayedBatches, info.ReplayedTriples, repaired, policy, l.EpochMaxDelta())
			if *checkpointInterval > 0 || *checkpointWALBytes > 0 || *retention > 0 {
				// The loop also forces retention merges once enough expired
				// triples pile up, so -retention alone is reason to run it.
				ckptPtr.Store(ingest.StartCheckpointer(l, ingest.CheckpointerConfig{
					Interval: *checkpointInterval,
					WALBytes: *checkpointWALBytes,
					Logf:     log.Printf,
				}))
				log.Printf("checkpointer running: interval=%v wal-bytes=%d retention=%v (POST /v1/checkpoint forces one)",
					*checkpointInterval, *checkpointWALBytes, *retention)
			}
		}()
	} else {
		scfg := serverCfg
		scfg.Snapshot = snapInfo
		srv := server.New(backend, scfg, runtime.GOMAXPROCS(0))
		srvPtr.Store(srv)
		log.Printf("backend sealed (%d triples); serving ready in %v",
			backend.NumTriples(), time.Since(buildStart).Round(time.Millisecond))
		handler = wrapPprof(srv.Handler())
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}

	// Serve until SIGINT/SIGTERM, then drain in-flight requests.
	done := make(chan os.Signal, 1)
	signal.Notify(done, os.Interrupt, syscall.SIGTERM)
	go func() {
		log.Printf("serving on %s", *addr)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()
	<-done
	log.Printf("shutting down (draining in-flight requests for up to %v)", *drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	// Stop the background checkpointer before the process exits so a
	// checkpoint mid-commit finishes (or cleanly never starts).
	if ckpt := ckptPtr.Load(); ckpt != nil {
		ckpt.Stop()
	}
	// Flush the slow-query log so captured span trees outlive the process
	// (nil while a live boot was still replaying — nothing captured yet).
	if srv := srvPtr.Load(); srv != nil && *slowlogSize >= 0 {
		log.Print("slowlog at shutdown:")
		if err := srv.WriteSlowlog(os.Stderr); err != nil {
			log.Printf("slowlog flush: %v", err)
		}
	}
}
