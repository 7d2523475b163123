package main

import (
	"fmt"
	"io"
	"os"
)

// selfTestSeconds keeps every workload short; the sweep still completes
// its repetitions whatever the budget.
const selfTestSeconds = 3

// selfTest runs every workload briefly, untraced and traced, and checks
// the output contract: every metric printed with its unit, no failed
// operation on an idle host, every oracle passing, and routed labels equal
// to predict labels for the same seed.
func selfTest(env *runEnv) int {
	bad := 0
	check := func(ok bool, format string, args ...any) {
		status := "ok  "
		if !ok {
			status = "FAIL"
			bad++
		}
		fmt.Printf("%s %s\n", status, fmt.Sprintf(format, args...))
	}
	digests := map[string]string{}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			env.labelDigest = ""
			secs := float64(selfTestSeconds)
			if traced && name == "sweep" {
				secs = 1 // two repetitions whatever the budget
			}
			res, err := runWorkload(name, 7, secs, traced, env)
			check(err == nil, "%s trace=%t runs (%v)", name, traced, err)
			if err != nil {
				continue
			}
			if err := res.finish(io.Discard, traced); err != nil {
				check(false, "%s trace=%t encodes its result: %v", name, traced, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			missing := 0
			for _, d := range want {
				if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit {
					missing++
				}
			}
			check(missing == 0 && len(res.Metrics) == len(want), "%s trace=%t prints all %d metrics with units", name, traced, len(want))
			check(res.Correct, "%s trace=%t oracles pass %v", name, traced, res.errs)
			check(res.Failed == 0, "%s trace=%t failed_ratio %d/%d = 0", name, traced, res.Failed, res.Attempted)
			if !traced && env.labelDigest != "" {
				digests[name] = env.labelDigest
			}
		}
	}
	check(digests["predict"] != "" && digests["predict"] == digests["routed"], "routed labels equal predict labels for the same seed")
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "self-test: %d checks failed\n", bad)
		return 1
	}
	fmt.Println("self-test passed")
	return 0
}
