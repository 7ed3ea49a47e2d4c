// Command benchmark regenerates the paper's evaluation artifacts on the
// synthetic datasets. Each subcommand prints a table shaped like the
// corresponding figure of Sec. VII. The repository's end-to-end
// benchmark — a real serverd driven over HTTP, with per-layer replay —
// lives in bench/ (see bench/README.md).
//
// Usage:
//
//	benchmark fig4              effectiveness: MRR of C1/C2/C3 (DBLP + TAP)
//	benchmark fig5              query performance vs baselines (Q1–Q10)
//	benchmark fig6a             search time vs k and query length
//	benchmark fig6b             index sizes and build times (3 datasets)
//	benchmark ablation-summary  summary graph vs no-summarization
//	benchmark ablation-dmax     exploration depth sweep
//	benchmark ablation-cap      per-element cursor cap sweep
//	benchmark ablation-scale    query computation vs data size
//	benchmark ablation-oracle   Sec. IX connectivity/score oracle
//	benchmark all               everything above
//
// Flags scale the datasets (defaults keep each subcommand under ~a
// minute on a laptop):
//
//	-pubs N    DBLP publications (default 10000)
//	-unis N    LUBM universities (default 1)
//	-tap N     TAP instances per class (default 25)
//	-seed N    dataset seed (default 1)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/bench"
)

func main() {
	pubs := flag.Int("pubs", 10000, "DBLP scale (publications)")
	unis := flag.Int("unis", 1, "LUBM scale (universities)")
	tapScale := flag.Int("tap", 25, "TAP scale (instances per class)")
	seed := flag.Int64("seed", 1, "dataset seed")
	flag.Parse()

	cmd := flag.Arg(0)
	if cmd == "" {
		flag.Usage()
		os.Exit(2)
	}

	dblpEnv := func() *bench.Env {
		fmt.Fprintf(os.Stderr, "building DBLP(%d) environment...\n", *pubs)
		return bench.NewDBLPEnv(*pubs, *seed)
	}

	run := func(name string) {
		switch name {
		case "fig4":
			env := dblpEnv()
			fmt.Println(bench.RunFig4(env, bench.DBLPWorkload(), 10))
			tapEnv := bench.NewTAPEnv(*tapScale, *seed)
			fmt.Println(bench.RunFig4(tapEnv, bench.TAPWorkload(), 10))
		case "fig5":
			env := dblpEnv()
			fmt.Fprintln(os.Stderr, "building baseline indexes (4 BLINKS configurations)...")
			fmt.Println(bench.RunFig5(env, bench.PerfWorkload(), 10))
		case "fig6a":
			env := dblpEnv()
			fmt.Println(bench.RunFig6a(env, bench.DBLPWorkload(), []int{1, 5, 10, 20, 50, 100}))
		case "fig6b":
			envs := []*bench.Env{
				bench.NewDBLPEnv(*pubs, *seed),
				bench.NewLUBMEnv(*unis, *seed),
				bench.NewTAPEnv(*tapScale, *seed),
			}
			fmt.Println(bench.RunFig6b(envs))
		case "ablation-summary":
			env := bench.NewDBLPEnv(min(*pubs, 2000), *seed)
			fmt.Println(bench.RunAblationSummary(env, bench.DBLPWorkload()[:10]))
		case "ablation-dmax":
			env := dblpEnv()
			fmt.Println(bench.RunAblationDmax(env, bench.DBLPWorkload(), []int{4, 6, 8, 12, 16}))
		case "ablation-cap":
			env := dblpEnv()
			fmt.Println(bench.RunAblationCap(env, bench.DBLPWorkload(), []int{1, 2, 5, 10, 50}))
		case "ablation-scale":
			fmt.Fprintln(os.Stderr, "building DBLP environments at three scales...")
			fmt.Println(bench.RunScaling([]int{2000, 10000, 30000}, *seed))
		case "ablation-oracle":
			env := dblpEnv()
			fmt.Println(bench.RunAblationOracle(env, bench.DBLPWorkload()))
		default:
			log.Fatalf("unknown subcommand %q", name)
		}
	}

	if cmd == "all" {
		for _, name := range []string{"fig4", "fig5", "fig6a", "fig6b",
			"ablation-summary", "ablation-dmax", "ablation-cap",
			"ablation-scale", "ablation-oracle"} {
			run(name)
		}
		return
	}
	run(cmd)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
