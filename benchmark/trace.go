package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mlaasbench/internal/telemetry"
)

// Span is one timed call into a layer's public function, recorded by the
// benchmark around the call (the program itself is not instrumented). All
// spans of one request share Req; Parent names the enclosing span.
type Span struct {
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s Span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory while recording is on and writes them out
// when the run ends. Recording off costs one atomic load per call site.
type Tracer struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

func (t *Tracer) recording() bool { return t != nil && t.on.Load() }

func (t *Tracer) add(req int64, name, parent string, start, end time.Time) {
	if !t.recording() {
		return
	}
	s := Span{Req: req, Name: name, Parent: parent, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns and clears the recorded spans.
func (t *Tracer) take() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// reqIDPrefix marks benchmark-issued request ids; the number after it is
// the request's index in its phase, so server-side spans join client-side
// ones without any program change (X-Request-ID is already propagated by
// client, router and service).
const reqIDPrefix = "bench-"

func requestIndex(r *http.Request) int64 {
	id := r.Header.Get(telemetry.RequestIDHeader)
	if !strings.HasPrefix(id, reqIDPrefix) {
		return -1
	}
	n, err := strconv.ParseInt(id[len(reqIDPrefix):], 10, 64)
	if err != nil {
		return -1
	}
	return n
}

func requestID(i int64) string { return reqIDPrefix + strconv.FormatInt(i, 10) }

// tracedHandler times ServeHTTP of a service.Server or cluster.Router
// handler. Span names carry the route, so train and predict handler times
// separate; behindRouter names the router span as the parent.
func tracedHandler(t *Tracer, layer string, behindRouter bool, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.recording() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		route := routeOf(r)
		parent := "transport.roundtrip"
		if behindRouter {
			parent = "router." + route
		}
		t.add(requestIndex(r), layer+"."+route, parent, start, time.Now())
	})
}

func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasSuffix(p, "/predictions"):
		return "predict"
	case strings.HasSuffix(p, "/models"):
		return "train"
	case strings.HasSuffix(p, "/datasets"):
		return "upload"
	}
	return "other"
}

// tracedTransport times RoundTrip on the client's connection: the request
// write, the server's whole handling and the response header read. The
// body is read after RoundTrip returns, inside the client's own time.
type tracedTransport struct {
	t    *Tracer
	next http.RoundTripper
}

func (tt tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !tt.t.recording() {
		return tt.next.RoundTrip(r)
	}
	start := time.Now()
	resp, err := tt.next.RoundTrip(r)
	tt.t.add(requestIndex(r), "transport.roundtrip", "client."+routeOf(r), start, time.Now())
	return resp, err
}

// layerTimes sums span durations by name per request, for the ledger.
type layerTimes map[string]map[int64]time.Duration

func groupSpans(spans []Span) layerTimes {
	out := layerTimes{}
	for _, s := range spans {
		if s.Req < 0 {
			continue
		}
		m := out[s.Name]
		if m == nil {
			m = map[int64]time.Duration{}
			out[s.Name] = m
		}
		m[s.Req] += s.dur()
	}
	return out
}

// ledgerRow is one layer's mean self time per request.
type ledgerRow struct {
	Layer  string
	SelfUS float64
}

// pairCost is the off-path cost, in microseconds, of one (model, batch)
// predict: each wire codec step and the forward pass, timed by the
// benchmark on the same rows and fitted model outside any request.
type pairCost struct{ encRows, decRows, encLabels, decLabels, forward float64 }

// ledger reconciles the traced predict requests of one run.
type ledger struct {
	rows      []ledgerRow
	e2eUS     float64 // mean end-to-end time from the timing origin
	handlerUS float64 // mean replica handler time, on the request path
	n         int     // requests with every span present
	missing   int     // requests lacking a span: a failure, never skipped
}

// predictLedger splits each predict request into layers measured apart
// from one another. On the request path: harness lag, client self time
// (Predict minus RoundTrip), transport (RoundTrip minus the outermost
// handler) and router relay (router handler minus replica handler). Off
// the path, for the request's own (model, batch): the server's wire work
// (decode the rows, encode the labels) and the forward pass. What the
// replica handler spends beyond its wire and forward work is left
// unexplained: the service's dispatch, which no public function times
// apart, plus any gap between the off-path and on-path costs.
func predictLedger(lt layerTimes, routed bool, costOf func(req int64) pairCost) ledger {
	var l ledger
	var sums [6]float64
	for req, total := range lt["request.predict"] {
		lag, ok1 := lt["harness.lag"][req]
		pred, ok2 := lt["client.predict"][req]
		rtt, ok3 := lt["transport.roundtrip"][req]
		svc, ok4 := lt["service.predict"][req]
		rtr, ok5 := lt["router.predict"][req]
		if !(ok1 && ok2 && ok3 && ok4 && (ok5 || !routed)) {
			l.missing++
			continue
		}
		outer, relay := svc, time.Duration(0)
		if routed {
			outer, relay = rtr, rtr-svc
		}
		c := costOf(req)
		l.n++
		l.e2eUS += us(total)
		l.handlerUS += us(svc)
		sums[0] += us(lag)
		sums[1] += us(pred - rtt)
		sums[2] += us(rtt - outer)
		sums[3] += us(relay)
		sums[4] += c.decRows + c.encLabels
		sums[5] += c.forward
	}
	if l.n == 0 {
		return l
	}
	for i, name := range []string{"harness", "client", "transport", "cluster", "wire", "classifiers"} {
		l.rows = append(l.rows, ledgerRow{name, sums[i] / float64(l.n)})
	}
	l.e2eUS /= float64(l.n)
	l.handlerUS /= float64(l.n)
	return l
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// print writes the ledger table and returns the largest measured layer
// and the unexplained share of the end-to-end mean.
func (l ledger) print(w *strings.Builder, title string) (largest string, unexplainedPct float64) {
	fmt.Fprintf(w, "ledger %s (n=%d requests, %d missing a span, mean end-to-end %.1f us, replica handler %.1f us)\n",
		title, l.n, l.missing, l.e2eUS, l.handlerUS)
	sum, best := 0.0, -1.0
	for _, r := range l.rows {
		sum += r.SelfUS
		fmt.Fprintf(w, "  %-12s self %9.1f us  %5.1f%%\n", r.Layer, r.SelfUS, pctOf(r.SelfUS, l.e2eUS))
		if r.SelfUS > best {
			best, largest = r.SelfUS, r.Layer
		}
	}
	unexplainedPct = pctOf(l.e2eUS-sum, l.e2eUS)
	fmt.Fprintf(w, "  %-12s %9.1f us  %5.1f%%  (service dispatch and on/off-path gap; tolerance %.0f%% to %.0f%%)\n",
		"unexplained", l.e2eUS-sum, unexplainedPct, ledgerMinPct, ledgerMaxPct)
	fmt.Fprintf(w, "  largest layer: %s\n", largest)
	return largest, unexplainedPct
}

func pctOf(x, of float64) float64 {
	if of == 0 {
		return 0
	}
	return 100 * x / of
}

// The unexplained share of a predict request on predict and routed must
// fall in [ledgerMinPct, ledgerMaxPct], or the traced run fails. Below the
// floor, the off-path costs exceed what the request spent: a layer is
// counted twice or timed on different work. Above the ceiling, the replica
// spends most of a request on work the ledger does not name.
const (
	ledgerMinPct = 0.0
	ledgerMaxPct = 50.0
)
