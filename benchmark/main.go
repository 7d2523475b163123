// Command benchmark is the repository's end-to-end benchmark. It runs one
// of four workloads in-process (servers on 127.0.0.1:0, temp dirs under
// the artifact directory), checks every output against an oracle, and
// prints every end-to-end metric (or, with --trace 1, every per-layer
// metric) by name with its unit; the last line of standard output is one
// JSON object. See README.md in this directory.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runEnv is the run's environment: where it may write, and the
// fingerprint recorded with every run.
type runEnv struct {
	artifacts  string // traces and temp dirs live here
	tmp        string
	gomaxprocs int
	gitSHA     string

	labelDigest string // set by serving workloads, compared by the self-test
}

func (e *runEnv) tracePath(workload string, seed uint64) string {
	return filepath.Join(e.artifacts, fmt.Sprintf("trace-%s-seed%d.jsonl", workload, seed))
}

func (e *runEnv) fingerprint() string {
	return fmt.Sprintf("env: nproc=%d GOMAXPROCS=%d go=%s git=%s os=%s/%s",
		runtime.NumCPU(), e.gomaxprocs, runtime.Version(), e.gitSHA, runtime.GOOS, runtime.GOARCH)
}

var workloadNames = []string{"sweep", "predict", "churn", "routed"}

func runWorkload(name string, seed uint64, seconds float64, traced bool, env *runEnv) (*result, error) {
	res := newResult()
	res.logf("%s", env.fingerprint())
	res.logf("workload %s, seed %d, %.0fs, trace %t", name, seed, seconds, traced)
	var err error
	switch name {
	case "sweep":
		err = runSweep(seed, seconds, traced, env, res)
	case "predict":
		err = runServing(workloadPredict, seed, seconds, traced, env, res)
	case "churn":
		err = runServing(workloadChurn, seed, seconds, traced, env, res)
	case "routed":
		err = runServing(workloadRouted, seed, seconds, traced, env, res)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	return res, err
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 25, "measured time per run")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	selftest := flag.Bool("selftest", false, "run every workload briefly and check the output contract")
	artifacts := flag.String("artifacts", ".bench_build/artifacts", "directory for traces and temp dirs")
	gitSHA := flag.String("git-sha", "none", "source revision, recorded in the fingerprint")
	flag.Parse()

	if c := runtime.NumCPU(); runtime.GOMAXPROCS(0) > c {
		runtime.GOMAXPROCS(c)
	}
	env := &runEnv{artifacts: *artifacts, gomaxprocs: runtime.GOMAXPROCS(0), gitSHA: *gitSHA}
	if err := os.MkdirAll(env.artifacts, 0o755); err != nil {
		fatal(err)
	}
	tmp, err := os.MkdirTemp(env.artifacts, "run-")
	if err != nil {
		fatal(err)
	}
	env.tmp = tmp
	defer os.RemoveAll(tmp)

	if *selftest {
		code := selfTest(env)
		os.RemoveAll(tmp)
		os.Exit(code)
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	start := time.Now()
	res, err := runWorkload(*workload, *seed, *seconds, *trace == 1, env)
	if err != nil {
		os.RemoveAll(tmp)
		fatal(err)
	}
	res.logf("wall time %.1fs", time.Since(start).Seconds())
	if err := res.finish(os.Stdout, *trace == 1); err != nil {
		fatal(err)
	}
	if !res.Correct {
		os.RemoveAll(tmp)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
