// Command rdbench regenerates every table and figure from the
// paper's evaluation (§6), printing paper-reported values next to the
// values measured on this reproduction's simulator.
//
// Usage:
//
//	rdbench             # run every experiment
//	rdbench -exp fig5   # run one (table2 table3 table4 table5 fig3
//	                    #   switch admission grantset preempt fig4
//	                    #   table6 fig5 baselines clock)
//	rdbench -list       # list experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// experiment is one reproducible artifact from the paper.
type experiment struct {
	name  string
	title string
	run   func()
}

var experiments = []experiment{
	{"table2", "Table 2: MPEG resource list", expTable2},
	{"table3", "Table 3: 3D graphics resource list", expTable3},
	{"table4", "Table 4: grant set for modem + 3D + MPEG", expTable4},
	{"table5", "Table 5: example Policy Box", expTable5},
	{"fig3", "Figure 3: EDF schedule of the Table 4 grant set", expFig3},
	{"switch", "§6.1: context-switch costs", expSwitch},
	{"admission", "§6.2: admissions control cost", expAdmission},
	{"grantset", "§6.3: grant-set determination cost", expGrantSet},
	{"preempt", "§6.4: managed preemption cost", expPreempt},
	{"fig4", "Figure 4 / §6.5: four periodic threads + Sporadic Server", expFig4},
	{"table6", "Table 6: resource list for threads 2-6", expTable6},
	{"fig5", "Figure 5 / §6.5: overload staircase", expFig5},
	{"baselines", "§3.4/3.5: RD vs fair-share vs capacity reserves", expBaselines},
	{"clock", "§5.4: external-clock skew compensation", expClock},
}

// benchTelemetry is non-nil when -manifest was given. Every experiment
// builds its Distributors through newDist, so all of an invocation's
// runs register into the one registry and the manifest aggregates the
// whole invocation (like an rdsweep cell aggregates its runs).
var benchTelemetry *telemetry.Set

// newDist is the only way rdbench experiments assemble a Distributor:
// core.New plus the invocation-wide telemetry set.
func newDist(cfg core.Config) *core.Distributor {
	cfg.Telemetry = benchTelemetry
	return core.New(cfg)
}

func main() {
	exp := flag.String("exp", "", "run a single experiment by name")
	list := flag.Bool("list", false, "list experiment names")
	manifestOut := flag.String("manifest", "", "write an rdtel/v2 manifest aggregating the invocation to this file ('-' for stdout)")
	flag.Parse()

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-10s %s\n", e.name, e.title)
		}
		return
	}
	if *manifestOut != "" {
		// Registry only: experiments run many unrelated kernels, so
		// interleaved span timelines would mislead more than inform.
		benchTelemetry = &telemetry.Set{Registry: telemetry.NewRegistry()}
	}
	ran := make([]string, 0, len(experiments))
	if *exp != "" {
		found := false
		for _, e := range experiments {
			if e.name == *exp {
				banner(e.title)
				e.run()
				ran = append(ran, e.name)
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "rdbench: unknown experiment %q (try -list)\n", *exp)
			os.Exit(2)
		}
	} else {
		for _, e := range experiments {
			banner(e.title)
			e.run()
			fmt.Println()
			ran = append(ran, e.name)
		}
	}
	if *manifestOut != "" {
		writeManifest(*manifestOut, ran)
	}
}

func writeManifest(path string, ran []string) {
	man := telemetry.NewManifest(0)
	man.Build = telemetry.GitDescribe()
	man.ConfigDigest = telemetry.ConfigDigest(ran)
	man.Fill(benchTelemetry)
	man.DeriveTotals()
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		check(err)
		defer f.Close()
		w = f
	}
	check(man.WriteJSON(w))
}

// must unwraps a builder's result, exiting on failure.
func must[T any](v T, err error) T {
	check(err)
	return v
}

// check exits on a failed setup or scheduled step.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "rdbench:", err)
		os.Exit(1)
	}
}

func banner(title string) {
	line := strings.Repeat("=", len(title)+4)
	fmt.Printf("%s\n| %s |\n%s\n", line, title, line)
}
