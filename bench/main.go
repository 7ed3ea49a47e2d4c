// Command bench is the repository's benchmark: five HTTP workloads against
// a real serverd built from the commit under test, end-to-end metrics with
// regression bounds, and a traced, in-process layers pass that says where
// the time goes. See README.md in this directory.
//
// The driver runs one workload per invocation:
//
//	bash bench/run.sh --workload dblp_search_miss --seed 1 --seconds 12 --trace 0
//
// and reads the last line of standard output. Without --workload the
// whole set runs (every workload untraced, then traced) and a summary is
// printed and written to bench/out/summary.json:
//
//	go run -C bench .            # full set
//	go run -C bench . -aa 2      # A/A: the set twice on one build, spreads against bounds
//	go run -C bench . -smoke     # tiny data, ~2 s per workload: does everything still work
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"text/tabwriter"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print the driver's JSON line (default: the whole set)")
		seed         = flag.Int64("seed", 1, "data and request seed: the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", 0, "measured seconds per run, closed-loop plus open-loop phase (default 12, with -smoke 1.5)")
		trace        = flag.Int("trace", 0, "1: also run the 1-client pass and the in-process layers pass, and report the per-layer metrics")
		aa           = flag.Int("aa", 0, "run the untraced set N times on this build and compare the spreads with the bounds")
		smoke        = flag.Bool("smoke", false, "tiny datasets, low rates, short phases: a functional check of every workload")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	installSignalCleanup()
	defer cleanupAll()

	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	binDir, err := buildBinaries(root)
	if err != nil {
		return fail(err)
	}
	base := runConfig{Root: root, BinDir: binDir, Seed: *seed, Seconds: *seconds, Smoke: *smoke, Conns: runtime.NumCPU()}
	switch {
	case base.Seconds > 0:
	case *smoke:
		base.Seconds = 1.5
	default:
		base.Seconds = defaultSeconds
	}

	switch {
	case *workloadName != "":
		w := findWorkload(*workloadName)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q", *workloadName))
		}
		rc := base
		rc.W, rc.Trace = w, *trace == 1
		res, err := rc.run()
		if err != nil {
			return fail(err)
		}
		defs := endToEnd
		if rc.Trace {
			defs = perLayer
		}
		printResult(res, defs)
		// The driver reads exactly this object from the last line.
		line, err := json.Marshal(map[string]any{
			"correct":   res.Correct,
			"attempted": res.Attempted,
			"failed":    res.Failed,
			"metrics":   res.Metrics.render(defs),
		})
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(line))
		return 0
	case *aa > 0:
		return runAA(base, *aa)
	default:
		return runSet(base)
	}
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

// printResult prints every metric of defs by name, with its unit.
func printResult(res *runResult, defs []metricDef) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\t%s\tseed %d\ttrace %v\n", res.Workload, res.Seed, res.Trace)
	for _, d := range defs {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", d.Name, res.Metrics[d.Name], d.Unit)
	}
	fmt.Fprintf(tw, "  attempted\t%d\t\n  failed\t%d\t\n", res.Attempted, res.Failed)
	tw.Flush()
	if info, err := json.Marshal(res.Info); err == nil {
		fmt.Printf("  info %s\n", info)
	}
	for _, n := range res.Notes {
		fmt.Printf("  note: %s\n", n)
	}
}

// setSummary is the full set's output. Claim is always null: this benchmark
// defines names, it claims no gain.
type setSummary struct {
	Env       envBlock              `json:"env"`
	Seed      int64                 `json:"seed"`
	Seconds   float64               `json:"seconds"`
	Smoke     bool                  `json:"smoke"`
	Workloads map[string]setResults `json:"workloads"`
	Claim     *string               `json:"claim"`
}

type setResults struct {
	EndToEnd *runResult `json:"end_to_end"`
	PerLayer *runResult `json:"per_layer"`
}

// runSet runs every workload untraced and then traced, prints every
// metric by name and unit, and writes the summary. It exits non-zero if
// any workload had a failed or wrong response.
func runSet(base runConfig) int {
	sum := setSummary{Env: readEnv(base.Root), Seed: base.Seed, Seconds: base.Seconds, Smoke: base.Smoke, Workloads: map[string]setResults{}}
	ok := true
	for i := range workloads {
		var rs setResults
		for _, traced := range []bool{false, true} {
			rc := base
			rc.W, rc.Trace = &workloads[i], traced
			res, err := rc.run()
			if err != nil {
				return fail(fmt.Errorf("%s: %w", rc.W.Name, err))
			}
			if traced {
				rs.PerLayer = res
				printResult(res, perLayer)
			} else {
				rs.EndToEnd = res
				printResult(res, endToEnd)
			}
			ok = ok && res.Correct
		}
		sum.Workloads[workloads[i].Name] = rs
	}
	out, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return fail(err)
	}
	outDir := filepath.Join(base.Root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fail(err)
	}
	if err := os.WriteFile(filepath.Join(outDir, "summary.json"), out, 0o644); err != nil {
		return fail(err)
	}
	fmt.Printf("%s\n", out)
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: at least one workload had failed or wrong responses (fail_ratio > 0)")
		return 1
	}
	return 0
}

// runAA runs the untraced set n times on the same build and prints, per
// metric and workload, the relative spread of the n values against the
// metric's bound: the distance between the quartiles over the median, as
// the driver computes it, or with fewer than four sets the whole range
// over the median. Sets that disagree by more than a bound mean the
// benchmark cannot resolve a regression of that size: exit non-zero.
func runAA(base runConfig, n int) int {
	values := map[string]map[string][]float64{} // workload → metric → one value per set
	for set := 0; set < n; set++ {
		for i := range workloads {
			rc := base
			rc.W = &workloads[i]
			res, err := rc.run()
			if err != nil {
				return fail(fmt.Errorf("%s: %w", rc.W.Name, err))
			}
			if !res.Correct {
				printResult(res, endToEnd)
				fmt.Fprintf(os.Stderr, "bench: %s had failed or wrong responses\n", rc.W.Name)
				return 1
			}
			if values[rc.W.Name] == nil {
				values[rc.W.Name] = map[string][]float64{}
			}
			for _, d := range endToEnd {
				values[rc.W.Name][d.Name] = append(values[rc.W.Name][d.Name], res.Metrics[d.Name])
			}
			fmt.Fprintf(os.Stderr, "set %d/%d: %s done\n", set+1, n, rc.W.Name)
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian\tspread\tbound\tverdict")
	disagree := false
	for i := range workloads {
		name := workloads[i].Name
		for _, d := range endToEnd {
			vs := values[name][d.Name]
			rel := spread(vs)
			if n < 4 {
				s := sortedCopy(vs)
				rel = ratio(s[len(s)-1]-s[0], median(vs))
			}
			verdict := "ok"
			switch {
			case rel > d.Bound:
				verdict = "DISAGREE"
				disagree = true
			case rel > 0.10 && n >= 5:
				// The issue's rule: a candidate whose spread over 5 runs of
				// one build exceeds 10% belongs with the per-layer metrics.
				verdict = "demote (>10%)"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t%.1f%%\t%.0f%%\t%s\n", name, d.Name, d.Unit, median(vs), rel*100, d.Bound*100, verdict)
		}
	}
	tw.Flush()
	if disagree {
		fmt.Fprintln(os.Stderr, "bench: sets of the same build disagree beyond a bound")
		return 1
	}
	return 0
}
