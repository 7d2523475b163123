package main

import (
	"math"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opFunc performs arrival i on load worker w (each worker owns one client
// connection) and returns the operation kind ("predict", "train",
// "upload") with its error.
type opFunc func(w int, i int64) (kind string, err error)

// phase is the outcome of one open-loop interval at a fixed offered rate.
type phase struct {
	Rate      float64
	Dur       time.Duration
	Attempted int
	Failed    int // errors + late (over the request deadline) + never sent
	Unsent    int
	Goodput   float64 // successful arrivals / Dur
	P99       float64 // ms from the timing origin; failed arrivals count as +Inf
	LagP99    float64 // ms the generator sent after the scheduled time
	ByKind    map[string][]float64
	lat       []float64
	lag       []float64
}

// requestDeadline is the latency past which an arrival counts as failed.
const requestDeadline = time.Second

// openLoop offers n = rate*dur arrivals on a fixed schedule (arrival k is
// due at start + k/rate) through `workers` connections. An arrival that
// finds its worker still busy is timed from its due time, so a stall is
// charged to every arrival it delays. Arrivals still unsent when the
// window plus the request deadline has passed count as failed: the
// generator never drops an arrival silently.
func openLoop(rate float64, dur time.Duration, workers int, base int64, do opFunc, tr *Tracer) *phase {
	n := int(math.Round(rate * dur.Seconds()))
	if n < 1 {
		n = 1
	}
	p := &phase{Rate: rate, Dur: dur, Attempted: n, ByKind: map[string][]float64{}}
	lat := make([]float64, n)
	lag := make([]float64, n)
	kinds := make([]string, n)
	failed := make([]bool, n)
	var next atomic.Int64
	start := time.Now()
	stopAt := start.Add(dur + requestDeadline)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				now := time.Now()
				if now.After(stopAt) {
					failed[k], lat[k], kinds[k] = true, math.Inf(1), "unsent"
					continue
				}
				// An idle worker sleeps until the arrival is due; the
				// sleep's overshoot is the generator's own timer error,
				// so the arrival is timed from its actual send. A worker
				// still busy at the due time was held up by the system,
				// and the arrival is timed from when it was due.
				idle := due.After(now)
				if idle {
					preciseSleep(due.Sub(now))
				}
				t0 := time.Now()
				origin := due
				if idle {
					origin = t0
				}
				kind, err := do(w, base+int64(k))
				t1 := time.Now()
				kinds[k] = kind
				lag[k] = ms(t0.Sub(due))
				lat[k] = ms(t1.Sub(origin))
				if err != nil || t1.Sub(origin) > requestDeadline {
					failed[k] = true
					lat[k] = math.Inf(1)
				}
				if tr.recording() {
					tr.add(base+int64(k), "harness.lag", "request."+kind, origin, t0)
					tr.add(base+int64(k), "request."+kind, "", origin, t1)
				}
			}
		}(w)
	}
	wg.Wait()
	good := 0
	for k := range lat {
		if failed[k] {
			p.Failed++
			if kinds[k] == "unsent" {
				p.Unsent++
			}
			continue
		}
		good++
		p.ByKind[kinds[k]] = append(p.ByKind[kinds[k]], lat[k])
	}
	p.Goodput = float64(good) / dur.Seconds()
	p.lat, p.lag = lat, lag
	p.P99 = quantile(append([]float64(nil), lat...), 0.99)
	p.LagP99 = quantile(append([]float64(nil), lag...), 0.99)
	return p
}

// backlogMS is how far the median generator lag may rise from the first
// quarter of a phase to the last before the backlog counts as growing.
const backlogMS = 2.0

// growing reports a backlog that grew over the phase: arrivals in its last
// quarter were sent later than those in its first. A transient stall
// delays a burst of arrivals and recovers; overload delays each quarter
// more than the one before.
func (p *phase) growing() bool {
	q := len(p.lag) / 4
	if q == 0 {
		return false
	}
	first := median(p.lag[:q])
	last := median(p.lag[len(p.lag)-q:])
	return last > first+backlogMS
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// closedLoop runs `workers` back-to-back callers for dur and returns
// completed calls per second (the most the generator can push through
// the target), with the calls attempted and failed. An op that returns
// an empty kind did nothing and is not counted.
func closedLoop(dur time.Duration, workers int, base int64, do opFunc) (rate float64, attempted, failed int) {
	var done, errs, next atomic.Int64
	deadline := time.Now().Add(dur)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				kind, err := do(w, base+next.Add(1)-1)
				switch {
				case kind == "":
				case err != nil:
					errs.Add(1)
				default:
					done.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return float64(done.Load()) / time.Since(start).Seconds(), int(done.Load() + errs.Load()), int(errs.Load())
}

// mergePhases pools several windows of one rate into one phase.
func mergePhases(ps []*phase) *phase {
	m := &phase{Rate: ps[0].Rate, ByKind: map[string][]float64{}}
	for _, p := range ps {
		m.Dur += p.Dur
		m.Attempted += p.Attempted
		m.Failed += p.Failed
		m.Unsent += p.Unsent
		m.lat = append(m.lat, p.lat...)
		m.lag = append(m.lag, p.lag...)
		for k, v := range p.ByKind {
			m.ByKind[k] = append(m.ByKind[k], v...)
		}
	}
	m.P99 = quantile(append([]float64(nil), m.lat...), 0.99)
	m.LagP99 = quantile(append([]float64(nil), m.lag...), 0.99)
	return m
}

// windowMedian is the median over windows of each window's q-quantile
// latency: one burst of host noise moves one window, not the figure.
func windowMedian(ps []*phase, q float64) float64 {
	var vals []float64
	for _, p := range ps {
		vals = append(vals, quantile(append([]float64(nil), p.lat...), q))
	}
	return median(vals)
}

// Ladder settings. Rungs climb by ladderStep until two in a row miss the
// SLO, then bisect the step above the best rung ladderRefine times, so
// the capacity reads to within ladderStep^(1/2^ladderRefine) (about 6%).
const (
	ladderStep     = 1.25
	ladderRefine   = 2
	ladderMaxRungs = 20
	// harnessFrac: a rung offered above this share of the null-handler
	// ceiling measures the generator, not the server; it is flagged and
	// never counted as capacity.
	harnessFrac = 0.8
)

// rung is one ladder step's verdict.
type rung struct {
	*phase
	Pass    bool
	Harness bool // harness-limited: offered too close to the null ceiling
}

// ladder finds the highest offered rate whose p99 stays under slo with no
// failed arrival and no growing backlog, climbing from the rung above
// start. first, a passing phase at a lower rate, stands until a rung
// passes. It returns the best passing rung and every rung run.
func ladder(first *phase, start, sloMS, ceiling float64, run func(rate float64) *phase) (best *phase, rungs []rung) {
	pass := func(p *phase) bool { return p.Failed == 0 && p.P99 <= sloMS && !p.growing() }
	best = first
	limited := func(rate float64) bool { return ceiling > 0 && rate > harnessFrac*ceiling }
	// try runs a rung, and once more if it misses: a rung fails only when
	// it misses twice, so one burst of host noise does not end the climb.
	// It reports ok=false with a nil phase when the time budget is spent.
	try := func(rate float64) (*phase, bool, bool) {
		for attempt := 0; attempt < 2; attempt++ {
			p := run(rate)
			if p == nil {
				return nil, false, false
			}
			ok := pass(p)
			rungs = append(rungs, rung{phase: p, Pass: ok})
			if ok {
				return p, true, true
			}
		}
		return nil, false, true
	}
	// Climb past a miss: host noise can fail one rung below capacity, but
	// only overload fails two in a row, so the climb ends there and the
	// highest passing rung stands.
	misses := 0
	for rate := start * ladderStep; len(rungs) < ladderMaxRungs && misses < 2; rate *= ladderStep {
		if limited(rate) {
			rungs = append(rungs, rung{phase: &phase{Rate: rate}, Harness: true})
			break
		}
		p := run(rate)
		if p == nil {
			return best, rungs
		}
		ok := pass(p)
		rungs = append(rungs, rung{phase: p, Pass: ok})
		if !ok {
			misses++
			continue
		}
		misses = 0
		best = p
	}
	if misses == 0 {
		return best, rungs
	}
	lo, hi := best.Rate, best.Rate*ladderStep
	for i := 0; i < ladderRefine; i++ {
		mid := math.Sqrt(lo * hi)
		p, ok, ran := try(mid)
		if !ran {
			break
		}
		if ok {
			best, lo = p, mid
		} else {
			hi = mid
		}
	}
	return best, rungs
}

// preciseSleep blocks the calling thread in the kernel for d. time.Sleep
// wakes an idle Go process no sooner than the netpoller's 1 ms tick,
// which would add up to a millisecond of generator lag per arrival.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
