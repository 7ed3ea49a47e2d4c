package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rdf"
)

// runConfig is everything one run of one workload depends on.
type runConfig struct {
	Root    string // repository under test
	BinDir  string // buildindex and serverd built from it
	W       *workload
	Seed    int64
	Seconds float64 // measured time: closed-loop plus open-loop phase
	Trace   bool    // also run the 1-client pass and the in-process layers pass
	Smoke   bool    // tiny data, low rates: a functional check, not a measurement
	Conns   int     // client connections = nproc
}

// Phase shares of Seconds, and the warm-up before them. The closed loop
// measures capacity, the open loop latency at the committed rate; the
// open loop gets the larger share because its percentiles need samples.
const (
	closedShare = 0.30
	openShare   = 0.70
	warmSeconds = 1.0
	setupReps   = 3 // set-ups per run; setup_s is their median
)

// runResult is one run's outcome.
type runResult struct {
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Trace     bool           `json:"trace"`
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Metrics   metricSet      `json:"metrics"`
	Info      map[string]any `json:"info"`
	Notes     []string       `json:"notes,omitempty"`
}

// setup is one buildindex + boot, timed.
type setup struct {
	Server    *serverProc
	SnapPath  string
	WALDir    string
	BuildS    float64
	BootS     float64
	SnapBytes int64
}

// setUp builds a fresh snapshot (and an empty WAL for the live backend)
// from the N-Triples file and boots serverd on it, timing both.
func (rc *runConfig) setUp(dir, ntPath string, rep int) (*setup, error) {
	s := &setup{SnapPath: filepath.Join(dir, fmt.Sprintf("snap-%d.swdb", rep))}
	args := []string{"-data", ntPath, "-snapshot", s.SnapPath}
	if rc.W.Live {
		s.WALDir = filepath.Join(dir, fmt.Sprintf("wal-%d", rep))
		args = append(args, "-wal", s.WALDir)
	}
	t := time.Now()
	if out, err := exec.Command(filepath.Join(rc.BinDir, "buildindex"), args...).CombinedOutput(); err != nil {
		return nil, fmt.Errorf("buildindex: %v\n%s", err, out)
	}
	s.BuildS = time.Since(t).Seconds()
	fi, err := os.Stat(s.SnapPath)
	if err != nil {
		return nil, err
	}
	s.SnapBytes = fi.Size()
	s.Server, err = rc.boot(s, filepath.Join(dir, fmt.Sprintf("serverd-%d.log", rep)))
	if err != nil {
		return nil, err
	}
	boot, err := s.Server.waitHealthy(60 * time.Second)
	if err != nil {
		return nil, err
	}
	s.BootS = boot.Seconds()
	return s, nil
}

// boot starts serverd on a set-up's files with default flags, plus the
// stated live-backend flags for the ingest workload.
func (rc *runConfig) boot(s *setup, logPath string) (*serverProc, error) {
	args := []string{"-snapshot", s.SnapPath}
	if rc.W.Live {
		args = append(args, "-wal", s.WALDir)
		args = append(args, liveFlags...)
	}
	return startServer(filepath.Join(rc.BinDir, "serverd"), args, logPath)
}

// serverStats is the part of GET /stats the benchmark reads.
type serverStats struct {
	SearchCache struct {
		Hits   float64 `json:"hits"`
		Misses float64 `json:"misses"`
	} `json:"search_cache"`
	Shared   float64 `json:"singleflight_shared_total"`
	Timeouts float64 `json:"timeouts_total"`
	Rejected float64 `json:"rejected_total"`
	Ingest   *struct {
		Swaps       float64 `json:"swaps"`
		Invalidated float64 `json:"cache_invalidated_total"`
		WAL         struct {
			SizeBytes float64 `json:"size_bytes"`
		} `json:"wal"`
		Fsync struct {
			P50 float64 `json:"p50_ms"`
		} `json:"fsync_seconds"`
		Swap struct {
			P50 float64 `json:"p50_ms"`
		} `json:"swap_seconds"`
	} `json:"ingest"`
}

type healthz struct {
	Status  string `json:"status"`
	Triples int    `json:"triples"`
}

// run executes one workload once and returns its metrics.
func (rc *runConfig) run() (*runResult, error) {
	w := rc.W
	res := &runResult{Workload: w.Name, Seed: rc.Seed, Trace: rc.Trace, Metrics: metricSet{}, Info: map[string]any{}}
	m := res.Metrics

	dir := filepath.Join(rc.Root, ".bench_build", fmt.Sprintf("run-%d-%s", os.Getpid(), w.Name))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	trackDir(dir)
	defer os.RemoveAll(dir)

	// Inputs: the same seed gives the same data and the same requests.
	data, openRate, ingestRate := w.Data, w.OpenRate, w.IngestRate
	layerN, shardN := w.LayerQueries, w.ShardQueries
	if rc.Smoke {
		data = w.Smoke
		openRate, ingestRate = min(openRate, 20), min(ingestRate, 20)
		layerN, shardN = min(layerN, 16), min(shardN, 8)
	}
	triples := data.generate(rc.Seed)
	corp := buildCorpus(data.Kind, triples)
	ntPath := filepath.Join(dir, "data.nt")
	if err := writeNTriples(ntPath, triples); err != nil {
		return nil, err
	}

	// Set-up, several times: setup_s is the median. The first boot also
	// serves the traced run's 1-client pass, on a cold server.
	var (
		setups   []*setup
		ref      *reference
		src      opSource
		onePass  *phase
		headOps  []*op
		mainSrv  *setup
		nextRead atomic.Int64
	)
	defer func() {
		if ref != nil {
			ref.close()
		}
	}()
	for rep := 0; rep < setupReps; rep++ {
		s, err := rc.setUp(dir, ntPath, rep)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
		if rep == 0 {
			if ref, err = loadReference(s.SnapPath); err != nil {
				return nil, err
			}
			src = w.Source(corp, rc.Seed, ref.ncands)
			for i := 0; i < layerN; i++ {
				headOps = append(headOps, src.at(i))
			}
			if rc.Trace {
				onePass = rc.oneClientPass(s.Server, headOps)
			}
		}
		if rep < setupReps-1 {
			s.Server.kill()
		} else {
			mainSrv = s
		}
	}
	srv := mainSrv.Server
	var setupS, buildS, bootMS []float64
	for _, s := range setups {
		setupS = append(setupS, s.BuildS+s.BootS)
		buildS = append(buildS, s.BuildS)
		bootMS = append(bootMS, s.BootS*1000)
	}
	m["setup_s"] = median(setupS)
	m["snapshot.build_s"] = median(buildS)
	m["snapshot.boot_ms"] = median(bootMS)
	m["snapshot.bytes_per_triple"] = ratio(float64(mainSrv.SnapBytes), float64(len(triples)))

	var hz healthz
	if err := srv.getJSON("/healthz", &hz); err != nil {
		return nil, err
	}
	baseTriples := hz.Triples

	// Load. The mixed workload gives one connection to the reader and one
	// to the writer; every other workload drives nproc reader connections.
	readConns := rc.Conns
	var writer *client
	var wsrc *ingestStream
	var nextWrite atomic.Int64
	if w.Live {
		readConns = 1
		writer = newClient(srv.base, 1)
		defer writer.close()
		wsrc = newIngestStream(corp, rc.Seed)
	}
	reader := newClient(srv.base, readConns)
	defer reader.close()

	closedD := time.Duration(rc.Seconds * closedShare * float64(time.Second))
	openD := time.Duration(rc.Seconds * openShare * float64(time.Second))
	warmD := time.Duration(min(warmSeconds, rc.Seconds/4) * float64(time.Second))

	closedLoop(reader, src, &nextRead, readConns, warmD) // warm-up: caches fill, lazy set-up finishes
	var st0, st1 serverStats
	if err := srv.getJSON("/stats", &st0); err != nil {
		return nil, err
	}

	// both runs the reader's phase and, on the mixed workload, the
	// writer's beside it.
	both := func(read, write func() *phase) (r, wr *phase) {
		var wg sync.WaitGroup
		if writer != nil {
			wg.Add(1)
			go func() { defer wg.Done(); wr = write() }()
		}
		r = read()
		wg.Wait()
		return r, wr
	}
	closed, wclosed := both(
		func() *phase { return closedLoop(reader, src, &nextRead, readConns, closedD) },
		func() *phase { return closedLoop(writer, wsrc, &nextWrite, 1, closedD) })
	cpu := startCPUSampler(srv, max(openD/cpuWindows, time.Second))
	open, wopen := both(
		func() *phase { return openLoop(reader, src, &nextRead, readConns, openRate, openD) },
		func() *phase { return openLoop(writer, wsrc, &nextWrite, 1, ingestRate, openD) })
	cpuSamples, err := cpu.stop()
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := srv.getJSON("/stats", &st1); err != nil {
		return nil, err
	}

	// End-to-end metrics.
	openLat := sortedCopy(open.latencies())
	m["ops_s"] = windowedRate(closed, closedD)
	m["p50_ms"] = percentile(openLat, 50)
	m["p95_ms"] = percentile(openLat, 95)
	m["cpu_ms_per_op"] = windowedCPUPerOp(cpuSamples, open.Obs)
	m["rss_mb"] = rss

	// Per-layer metrics the HTTP run itself yields.
	m["p99_ms"] = percentile(openLat, 99)
	m["server.p99_closed_ms"] = percentile(sortedCopy(closed.latencies()), 99)
	m["server.cache_hit_ratio"] = ratio(st1.SearchCache.Hits-st0.SearchCache.Hits,
		st1.SearchCache.Hits-st0.SearchCache.Hits+st1.SearchCache.Misses-st0.SearchCache.Misses)
	m["server.bytes_out_per_op"] = ratio(float64(closed.bytesOut()+open.bytesOut()), float64(len(closed.Obs)+len(open.Obs)))
	m["server.singleflight_shared"] = st1.Shared - st0.Shared
	m["server.rejected"] = st1.Rejected - st0.Rejected
	m["server.timeouts"] = st1.Timeouts - st0.Timeouts
	m["loadgen.late_ratio"] = ratio(float64(open.Late), float64(open.Attempted))
	m["loadgen.samples"] = float64(len(openLat))
	res.Info["open_rate_per_s"] = openRate
	res.Info["closed_clients"] = readConns
	res.Info["phase_seconds"] = map[string]float64{"warm": warmD.Seconds(), "closed": closed.Elapsed.Seconds(), "open": open.Elapsed.Seconds()}
	res.Info["samples"] = map[string]int{"closed": len(closed.Obs), "open": len(open.Obs)}
	res.Info["highest_valid_percentile"] = highestPercentile(len(openLat))
	res.Info["triples"] = baseTriples

	total := &phase{}
	total.merge(closed)
	total.merge(open)
	if onePass != nil {
		total.merge(onePass)
	}

	// The mixed workload ends with a crash: kill -9, reboot on the same
	// files, and check that nothing acknowledged is gone.
	if w.Live {
		rc.writerMetrics(res, wsrc, wclosed, wopen, &st0, &st1)
		res.Info["ingest_rate_batches_per_s"] = ingestRate
		total.merge(&phase{Attempted: wclosed.Attempted + wopen.Attempted, Failed: wclosed.Failed + wopen.Failed, Errors: append(wclosed.Errors, wopen.Errors...)})
		if err := rc.crashAndRecover(res, total, mainSrv, dir, triples, wsrc, baseTriples, append(wclosed.Obs, wopen.Obs...), open); err != nil {
			return nil, err
		}
	} else {
		srv.stop()
	}

	// The layers pass runs before the answer check: it computes the head
	// of the stream anyway, and the check reuses those answers.
	if rc.Trace {
		if err := rc.layers(res, ref, headOps, onePass, triples, shardN); err != nil {
			return nil, err
		}
	}

	// Answer check: every response against the in-process reference.
	wrong, notes := ref.check(total.Obs)
	res.Attempted = total.Attempted
	res.Failed += total.Failed + wrong
	res.Notes = append(res.Notes, total.Errors...)
	res.Notes = append(res.Notes, notes...)
	m["fail_ratio"] = ratio(float64(res.Failed), float64(res.Attempted))
	if late := m["loadgen.late_ratio"]; late > 0.01 && !rc.Smoke {
		res.Notes = append(res.Notes, fmt.Sprintf("load generator handed over %.1f%% of open-loop sends more than 1 ms late (its share of the CPUs was busy); the delay is inside those requests' latencies", late*100))
	}
	res.Correct = res.Failed == 0 && m["lost_acked_triples"] == 0 && res.Attempted > 0
	return res, nil
}

// oneClientPass sends the head of the stream once over one connection to
// a freshly booted server and returns the phase; its median latency minus
// the in-process time of the same requests is the server layer's
// overhead. Requests that a cache serves in steady state (the hot cycle,
// keywords+rank candidates) are sent once untimed first, so the pass
// measures what the workload's steady state measures.
func (rc *runConfig) oneClientPass(srv *serverProc, head []*op) *phase {
	c := newClient(srv.base, 1)
	defer c.close()
	var next atomic.Int64
	src := newCycle(head)
	if rc.W.WarmHead {
		backToBack(c, src, &next, len(head))
		next.Store(0)
	}
	return backToBack(c, src, &next, len(head))
}

// backToBack sends n requests one after the other on one goroutine.
func backToBack(c *client, src opSource, next *atomic.Int64, n int) *phase {
	p := &phase{}
	start := time.Now()
	var buf bytes.Buffer
	for k := 0; k < n; k++ {
		o := src.at(int(next.Add(1) - 1))
		t := time.Now()
		r, err := c.do(o, &buf)
		p.record(o, r, err, time.Since(t))
	}
	p.Elapsed = time.Since(start)
	return p
}

// writerMetrics fills the ingest metrics from the writer's phases and the
// server's own counters.
func (rc *runConfig) writerMetrics(res *runResult, wsrc *ingestStream, wclosed, wopen *phase, st0, st1 *serverStats) {
	m := res.Metrics
	added := 0
	for _, ob := range wclosed.Obs {
		added += ob.Reply.Added
	}
	m["ingest_triples_s"] = ratio(float64(added), wclosed.Elapsed.Seconds())
	ackLat := sortedCopy(wopen.latencies())
	m["ingest_ack_p99_ms"] = percentile(ackLat, 99)
	if len(ackLat) > 0 {
		m["ingest.ack_max_ms"] = ackLat[len(ackLat)-1]
	}
	userBytes := 0
	for _, ob := range append(append([]obs(nil), wclosed.Obs...), wopen.Obs...) {
		userBytes += wsrc.ntBytes[ob.Op.Batch]
		if ob.Reply.Swapped {
			m["ingest.swap_ms_max"] = max(m["ingest.swap_ms_max"], ob.Reply.ServerMS)
		}
	}
	if st0.Ingest != nil && st1.Ingest != nil {
		m["ingest.swaps"] = st1.Ingest.Swaps - st0.Ingest.Swaps
		m["ingest.cache_invalidated"] = st1.Ingest.Invalidated - st0.Ingest.Invalidated
		m["ingest.swap_ms_p50"] = st1.Ingest.Swap.P50
		m["ingest.fsync_ms_p50"] = st1.Ingest.Fsync.P50
		m["ingest.wal_bytes_per_user_byte"] = ratio(st1.Ingest.WAL.SizeBytes-st0.Ingest.WAL.SizeBytes, float64(userBytes))
	}
	res.Info["ingest_samples"] = map[string]int{"closed": len(wclosed.Obs), "open": len(wopen.Obs)}
}

// crashAndRecover kills the live server with SIGKILL, reboots it on the
// same snapshot and WAL, and verifies the recovered state: the triple
// count, 100 sampled acknowledged triples, and — once a checkpoint has
// merged everything — 20 of the reader's searches exactly, against an
// engine rebuilt from the base data plus every acknowledged batch. The kill leaves the operating system's cache intact,
// so this checks kill-safety, not power-loss safety.
func (rc *runConfig) crashAndRecover(res *runResult, total *phase, s *setup, dir string, base []rdf.Triple,
	wsrc *ingestStream, baseTriples int, acks []obs, readerOpen *phase) error {

	m := res.Metrics
	s.Server.kill()
	logPath := filepath.Join(dir, "serverd-recovery.log")
	rs, err := rc.boot(s, logPath)
	if err != nil {
		return err
	}
	rec, err := rs.waitHealthy(120 * time.Second)
	if err != nil {
		return err
	}
	defer rs.stop()
	m["recovery_s"] = rec.Seconds()
	m["ingest.replayed_batches"] = replayedBatches(logPath)

	sort.Slice(acks, func(i, j int) bool { return acks[i].Op.Batch < acks[j].Op.Batch })
	expected := baseTriples
	acked := make([][]rdf.Triple, 0, len(acks))
	for _, a := range acks {
		expected += a.Reply.Added
		acked = append(acked, wsrc.triples[a.Op.Batch])
	}
	var hz healthz
	if err := rs.getJSON("/healthz", &hz); err != nil {
		return err
	}
	lost := 0
	if hz.Triples != expected {
		lost += abs(expected - hz.Triples)
		res.Notes = append(res.Notes, fmt.Sprintf("recovered server holds %d triples, acknowledged state is %d", hz.Triples, expected))
	}
	c := newClient(rs.base, 1)
	defer c.close()
	rng := rand.New(rand.NewSource(rc.Seed + 5))
	for k := 0; k < 100 && len(acked) > 0; k++ {
		batch := acked[rng.Intn(len(acked))]
		total.Attempted++
		if err := probeTriple(c, batch[rng.Intn(len(batch))]); err != nil {
			lost++
			total.Failed++
			total.note(err.Error())
		}
	}
	m["lost_acked_triples"] = float64(lost)

	// With the data fixed again, the reader's searches have one right
	// answer: that of an engine built from scratch over the merged data.
	// Keyword search sees merged epochs only, and replay merges only a
	// delta above the swap threshold, so a checkpoint merges the rest first.
	resp, err := c.http.Post(rs.base+"/v1/checkpoint", "application/json", nil)
	if err != nil {
		return fmt.Errorf("checkpoint after recovery: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("checkpoint after recovery: status %d", resp.StatusCode)
	}
	merged := mergedReference(base, acked)
	var searches []*op
	for _, ob := range readerOpen.Obs {
		if ob.Op.Kind == opSearch && len(searches) < 20 {
			exact := *ob.Op
			exact.Loose = false
			searches = append(searches, &exact)
		}
	}
	after := backToBack(c, newCycle(searches), new(atomic.Int64), len(searches))
	wrong, notes := merged.check(after.Obs)
	total.Attempted += after.Attempted
	total.Failed += after.Failed + wrong
	total.Errors = append(total.Errors, after.Errors...)
	res.Notes = append(res.Notes, notes...)
	res.Info["recovery_checked"] = map[string]int{"probes": 100, "searches": len(searches)}
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// layers runs the in-process layers pass and the shard comparison, folds
// their metrics in, and writes the spans out.
func (rc *runConfig) layers(res *runResult, ref *reference, head []*op, onePass *phase, triples []rdf.Triple, shardN int) error {
	rec := newRecorder()
	lp, err := runLayers(ref, head, rec)
	if err != nil {
		return err
	}
	for k, v := range lp.Metrics {
		res.Metrics[k] = v
	}
	for _, d := range lp.Diverged {
		res.Failed++
		res.Notes = append(res.Notes, "staged replay diverged from the engine's own answer on "+d)
	}
	// Server overhead: what one request costs over HTTP beyond what the
	// engine spends on it. A request the result cache serves costs the
	// engine nothing.
	inproc := lp.InprocUS
	if rc.W.CacheServed {
		inproc = []float64{0}
	}
	res.Metrics["server.overhead_us"] = median(onePass.latencies())*1000 - median(inproc)
	if shardN > 0 {
		sm, err := runShards(ref, triples, head[:min(shardN, len(head))])
		if err != nil {
			return err
		}
		for k, v := range sm {
			res.Metrics[k] = v
		}
	}
	res.Info["layer_queries"] = len(head)
	return writeTrace(rc.Root, res, rec.spans)
}

// writeTrace writes the layers pass's spans to bench/out/trace-<workload>.json.
func writeTrace(root string, res *runResult, spans []span) error {
	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{
		"workload": res.Workload,
		"seed":     res.Seed,
		"env":      readEnv(root),
		"spans":    spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+res.Workload+".json"), b, 0o644)
}
