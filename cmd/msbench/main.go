// msbench regenerates the paper's tables and figures on the simulated
// phone platform. Each experiment prints the same rows/series the paper
// reports; EXPERIMENTS.md records a reference run against the paper's
// numbers.
//
// Usage:
//
//	msbench -exp all            # every experiment
//	msbench -exp fig8           # steady-state scheme comparison
//	msbench -exp fig9 -maxk 8   # failure/departure sweep
//	msbench -exp fig10          # preservation / checkpoint data
//	msbench -exp table1         # MobiStreams vs server-based DSPS
//	msbench -exp fig6           # broadcast walk-through
//	msbench -exp churn          # reactive recovery vs placement scheduler
//	msbench -exp checkpoint     # full-blob vs incremental-async pipeline
//	msbench -exp scale          # region size × WiFi channels throughput sweep (one row per pair)
//	msbench -exp emit           # emit-context contract vs legacy []Out adapter
//	msbench -exp wire           # wire codec encode/decode cost
//	msbench -exp obs            # observability overhead on the emit path
//	msbench -exp elastic        # static vs elastic keyed parallelism, moving hotspot
//	msbench -exp federation     # control fan-out vs region count, gossip vs unicast
//	msbench -exp placement      # greedy scheduler vs topology-aware placement planner
//
// An unknown experiment or app name exits 2 with the list of valid names.
//
// -out DIR writes each of the nine gated experiments (churn, checkpoint,
// scale, emit, wire, obs, elastic, federation, placement) as
// DIR/<experiment>.json alongside the printed tables: its rows and the
// metrics it reduces them to (see bench.Result).
//
// -compare is the CI benchmark-regression gate: it reads the committed
// baseline (-baseline, BENCH_baseline.json) and the metrics in DIR/*.json,
// checks each against the bound table in compare.go, and exits non-zero
// when a metric is missing or past its limit: tuple loss, checkpoint
// pause, throughput, hotspot p99, control bytes and the placement loss
// ratio may regress at most 20% plus a grace term; the emit, wire-encode
// and traced-path allocations and every duplicate count are pinned at 0;
// and the placement planner must beat the greedy scheduler on cross-channel
// airtime share.
//
// -cpuprofile / -memprofile write pprof profiles so hot-path regressions
// caught by the gate are diagnosable straight from CI artifacts.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"mobistreams/internal/bench"
)

// experiments is every -exp name besides "all".
var experiments = []string{"table1", "fig6", "fig8", "fig9", "fig10", "churn", "checkpoint", "scale", "emit", "wire", "obs", "elastic", "federation", "placement"}

// checkExp rejects an -exp value that names no experiment.
func checkExp(name string) error {
	if name == "all" || slices.Contains(experiments, name) {
		return nil
	}
	return fmt.Errorf("unknown experiment %q (valid: %s|all)", name, strings.Join(experiments, "|"))
}

// parseApps turns the -apps list into apps, rejecting an unknown name.
func parseApps(list string) ([]bench.App, error) {
	var apps []bench.App
	for _, a := range strings.Split(list, ",") {
		switch strings.TrimSpace(a) {
		case "bcp":
			apps = append(apps, bench.BCP)
		case "sg", "signalguru":
			apps = append(apps, bench.SG)
		default:
			return nil, fmt.Errorf("unknown app %q (valid: bcp|sg|signalguru)", a)
		}
	}
	return apps, nil
}

// save writes one gated experiment's result under dir, when set.
func save[R any](dir, exp string, seed int64, rows []R, m bench.Metrics) error {
	if dir == "" {
		return nil
	}
	path, err := bench.WriteResult(dir, exp, seed, rows, m)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func main() {
	exp := flag.String("exp", "all", "experiment: "+strings.Join(experiments, "|")+"|all")
	maxK := flag.Int("maxk", 8, "maximum simultaneous failures/departures for fig9")
	scaleMax := flag.Int("scalemax", 64, "largest region size for the scale sweep (8..128)")
	scaleChannels := flag.String("scalechannels", "1,4", "comma-separated WiFi channel counts for the scale sweep (one row per region size and count)")
	seed := flag.Int64("seed", 1, "workload and loss seed")
	speedup := flag.Float64("speedup", 200, "simulated-to-wall clock ratio")
	apps := flag.String("apps", "bcp,sg", "comma-separated apps: bcp,sg")
	out := flag.String("out", "", "directory for the gated experiments' <experiment>.json results, and the results -compare reads")
	compare := flag.Bool("compare", false, "benchmark-regression gate: compare the results in -out to the baseline and exit non-zero on regression")
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "baseline metrics for -compare")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile to this path at exit")
	flag.Parse()

	if err := checkExp(*exp); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	appList, err := parseApps(*apps)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	if *compare {
		if *out == "" {
			fmt.Fprintln(os.Stderr, "-compare needs -out DIR")
			os.Exit(2)
		}
		if err := runCompare(*baselinePath, *out, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark regression gate: %v\n", err)
			os.Exit(1)
		}
		return
	}

	base := bench.Scenario{Seed: *seed, Speedup: *speedup}

	run := func(name string, fn func() error) {
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s took %v of wall time)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }

	if want("fig6") {
		run("fig6", func() error {
			bench.Fig6(os.Stdout)
			return nil
		})
	}
	if want("fig8") || want("fig10") {
		for _, app := range appList {
			app := app
			run("fig8/fig10 "+app.String(), func() error {
				outs, err := bench.SteadyState(app, base)
				if err != nil {
					return err
				}
				if want("fig8") {
					bench.WriteFig8(os.Stdout, app, outs)
				}
				if want("fig10") {
					bench.WriteFig10(os.Stdout, app, outs)
				}
				return nil
			})
		}
	}
	if want("fig9") {
		for _, app := range appList {
			app := app
			run("fig9 "+app.String(), func() error {
				_, err := bench.Fig9(app, base, *maxK, os.Stdout)
				return err
			})
		}
	}
	if want("table1") {
		run("table1", func() error {
			_, err := bench.Table1(base, os.Stdout)
			return err
		})
	}
	if want("checkpoint") {
		run("checkpoint", func() error {
			rows, err := bench.CkptComparison(bench.CkptScenario{Seed: *seed, Speedup: *speedup}, nil)
			if err != nil {
				return err
			}
			bench.WriteCkptTable(os.Stdout, rows)
			return save(*out, "checkpoint", *seed, rows, bench.CkptMetrics(rows))
		})
	}
	if want("scale") {
		run("scale", func() error {
			if *scaleMax < bench.DefaultScaleSizes[0] || *scaleMax > 128 {
				return fmt.Errorf("-scalemax %d out of range [%d,128]", *scaleMax, bench.DefaultScaleSizes[0])
			}
			var sizes []int
			for _, s := range bench.DefaultScaleSizes {
				if s <= *scaleMax {
					sizes = append(sizes, s)
				}
			}
			if *scaleMax > sizes[len(sizes)-1] {
				sizes = append(sizes, *scaleMax)
			}
			var channels []int
			for _, c := range strings.Split(*scaleChannels, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(c))
				if err != nil || n < 1 {
					return fmt.Errorf("bad -scalechannels entry %q", c)
				}
				channels = append(channels, n)
			}
			rows, err := bench.ScaleComparison(bench.ScaleScenario{Seed: *seed, Speedup: *speedup}, sizes, channels)
			if err != nil {
				return err
			}
			bench.WriteScaleTable(os.Stdout, rows)
			return save(*out, "scale", *seed, rows, bench.ScaleMetrics(rows))
		})
	}
	if want("emit") {
		run("emit", func() error {
			rows := bench.RunEmit(os.Stdout)
			return save(*out, "emit", *seed, rows, bench.EmitMetrics(rows))
		})
	}
	if want("wire") {
		run("wire", func() error {
			rows := bench.RunWire(os.Stdout)
			return save(*out, "wire", *seed, rows, bench.WireMetrics(rows))
		})
	}
	if want("obs") {
		run("obs", func() error {
			rows := bench.RunObs(os.Stdout)
			return save(*out, "obs", *seed, rows, bench.ObsMetrics(rows))
		})
	}
	if want("elastic") {
		run("elastic", func() error {
			// The elastic scenario carries its own speedup default tuned to
			// the service-time model (see ElasticScenario.Speedup); only the
			// seed is taken from the shared flags.
			rows, err := bench.ElasticComparison(bench.ElasticScenario{Seed: *seed})
			if err != nil {
				return err
			}
			bench.WriteElasticTable(os.Stdout, rows)
			return save(*out, "elastic", *seed, rows, bench.ElasticMetrics(rows))
		})
	}
	if want("federation") {
		run("federation", func() error {
			rows, err := bench.FederationComparison(bench.FederationScenario{Seed: *seed})
			if err != nil {
				return err
			}
			bench.WriteFederationTable(os.Stdout, rows)
			return save(*out, "federation", *seed, rows, bench.FederationMetrics(rows))
		})
	}
	if want("placement") {
		run("placement", func() error {
			// The placement scenario carries its own speedup default tuned
			// so a plan step's code-ship window spans enough wall time to
			// survive CI scheduling stalls (see PlacementScenario.Speedup);
			// only the seed is taken from the shared flags.
			rows, err := bench.PlacementComparison(bench.PlacementScenario{Seed: *seed})
			if err != nil {
				return err
			}
			bench.WritePlacementTable(os.Stdout, rows)
			return save(*out, "placement", *seed, rows, bench.PlacementMetrics(rows))
		})
	}
	if want("churn") {
		run("churn", func() error {
			rows, err := bench.ChurnComparison(bench.ChurnScenario{Seed: *seed, Speedup: *speedup}, bench.ChurnSchemes)
			if err != nil {
				return err
			}
			bench.WriteChurnTable(os.Stdout, rows)
			return save(*out, "churn", *seed, rows, bench.ChurnMetrics(rows))
		})
	}
}
