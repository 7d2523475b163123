package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"mlaasbench/internal/client"
	"mlaasbench/internal/cluster"
	"mlaasbench/internal/dataset"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/platforms"
	"mlaasbench/internal/rng"
	"mlaasbench/internal/service"
	"mlaasbench/internal/store"
	"mlaasbench/internal/synth"
	"mlaasbench/internal/telemetry"
	"mlaasbench/internal/wire"
)

// servingPlatform hosts every model: the local arm exposes all the
// classifier families the serving workloads mix.
const servingPlatform = "local"

// maxBatch bounds the rows of one predict request.
const maxBatch = 256

// batchesPerDataset is the size of each dataset's request pool.
const batchesPerDataset = 32

// servingSpec is the fixed shape of a serving workload; the seed fills in
// the data, the batches and the request order.
type servingSpec struct {
	datasets []string // corpus dataset names, uploaded to the platform
	families []string // classifiers trained on every dataset
	seeds    int      // distinct training seeds per (dataset, family)
	cache    int      // server model-cache capacity
	store    bool     // write-through artifact store in a temp dir
	replicas int      // 0: one server; n: n replicas behind a router
}

// modelSpec is one trained model's identity.
type modelSpec struct {
	ds     int
	family string
	seed   uint64
}

// inputs are the generated inputs of a serving workload: datasets, model
// identities and predict batches. Identical seeds give identical inputs.
type inputs struct {
	spec    servingSpec
	splits  []dataset.Split
	models  []modelSpec
	pools   [][][][]float64            // [dataset][batch] rows
	configs map[string]pipeline.Config // each family's default config; read-only
}

func makeInputs(spec servingSpec, seed uint64) (*inputs, time.Duration, error) {
	r := rng.New(seed).Split("serving-inputs")
	in := &inputs{spec: spec, configs: map[string]pipeline.Config{}}
	p, err := platforms.New(servingPlatform)
	if err != nil {
		return nil, 0, err
	}
	for _, fam := range spec.families {
		if in.configs[fam], err = p.Surface().DefaultConfig(fam); err != nil {
			return nil, 0, err
		}
	}
	start := time.Now()
	for _, name := range spec.datasets {
		s, ok := synth.CorpusByName(name)
		if !ok {
			return nil, 0, fmt.Errorf("unknown corpus dataset %q", name)
		}
		ds := synth.GenerateClean(s, synth.Quick, seed)
		in.splits = append(in.splits, ds.StratifiedSplit(0.7, r.Split("split/"+name)))
	}
	gen := time.Since(start)
	for di, sp := range in.splits {
		br := r.Split("batches/" + spec.datasets[di])
		var pool [][][]float64
		for b := 0; b < batchesPerDataset; b++ {
			// Log-uniform sizes over 1..maxBatch, as fixed quantiles so
			// every seed offers the same size mix: many small requests
			// where per-request overhead dominates, some kernel-heavy ones.
			n := int(math.Round(math.Exp(math.Log(maxBatch) * (float64(b) + 0.5) / batchesPerDataset)))
			rows := make([][]float64, n)
			for i := range rows {
				rows[i] = sp.Test.X[br.Intn(len(sp.Test.X))]
			}
			pool = append(pool, rows)
		}
		in.pools = append(in.pools, pool)
		for _, fam := range spec.families {
			for k := 0; k < spec.seeds; k++ {
				in.models = append(in.models, modelSpec{ds: di, family: fam, seed: 1 + r.Split(fmt.Sprintf("seed/%d/%s/%d", di, fam, k)).Uint64()%1_000_000})
			}
		}
	}
	return in, gen, nil
}

// oracle holds the labels every predict must return, computed in-process
// from models fitted on the same inputs (fits are deterministic, so these
// are the models the server holds).
type oracle struct {
	fitted []platforms.FittedModel
	expect [][][]int // [model][batch] labels
	fitMS  []float64 // each model's platform Fit time
}

func buildOracle(in *inputs) (*oracle, error) {
	p, err := platforms.New(servingPlatform)
	if err != nil {
		return nil, err
	}
	o := &oracle{}
	for _, m := range in.models {
		t0 := time.Now()
		fm, err := fitLocal(p, in, m)
		if err != nil {
			return nil, err
		}
		o.fitMS = append(o.fitMS, ms(time.Since(t0)))
		o.fitted = append(o.fitted, fm)
		var labels [][]int
		for _, b := range in.pools[m.ds] {
			labels = append(labels, fm.Predict(b))
		}
		o.expect = append(o.expect, labels)
	}
	return o, nil
}

func fitLocal(p platforms.Platform, in *inputs, m modelSpec) (platforms.FittedModel, error) {
	return p.Fit(in.configs[m.family], in.splits[m.ds].Train, m.seed)
}

// checkLabels compares a response with the oracle.
func checkLabels(got, want []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d labels, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("label %d = %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

// system is one running serving deployment: in-process servers on
// 127.0.0.1:0, optionally behind a router, with temp store dirs.
type system struct {
	servers  []*service.Server
	router   *cluster.Router
	base     string // the URL clients call
	clientRg *telemetry.Registry
	dsIDs    []string
	modelIDs []string
	closers  []func()
}

func (s *system) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// serve starts h on a fresh loopback port and returns its base URL.
func (s *system) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ErrorLog: log.New(io.Discard, "", 0)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	s.closers = append(s.closers, func() {
		_ = srv.Close()
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// registries lists every registry the system records into.
func (s *system) registries() []*telemetry.Registry {
	var out []*telemetry.Registry
	for _, srv := range s.servers {
		out = append(out, srv.Registry())
	}
	if s.router != nil {
		out = append(out, s.router.Registry())
	}
	return append(out, s.clientRg)
}

// newClient returns a client with its own connection (one per load
// worker), retries as the program ships them, and the binary codec.
func (s *system) newClient(tr *Tracer) *client.Client {
	c := client.New(s.base).WithCodec(client.CodecBinary)
	c.Telemetry = s.clientRg
	if tr != nil {
		c = c.WithTransport(tracedTransport{t: tr, next: client.NewTransport()})
	}
	return c
}

// startSystem builds the deployment, uploads the datasets and trains every
// model (each train fits and caches its model), then warms each model with
// one predict. This is the set-up that setup_s times.
func startSystem(ctx context.Context, in *inputs, tr *Tracer, tmp string) (*system, error) {
	s := &system{clientRg: telemetry.NewRegistry()}
	newServer := func() (*service.Server, error) {
		srv := service.NewServer(func(string, ...any) {}).
			WithRegistry(telemetry.NewRegistry()).
			WithModelCache(in.spec.cache).
			WithAdmission(runtime.GOMAXPROCS(0), service.DefaultAdmissionQueue)
		if in.spec.store {
			dir, err := os.MkdirTemp(tmp, "store-")
			if err != nil {
				return nil, err
			}
			s.closers = append(s.closers, func() { _ = os.RemoveAll(dir) })
			st, err := store.Open(dir)
			if err != nil {
				return nil, err
			}
			srv = srv.WithStore(st)
			if _, err := srv.WarmFromStore(); err != nil {
				return nil, err
			}
		}
		return srv, nil
	}
	fail := func(err error) (*system, error) {
		s.close()
		return nil, err
	}
	if in.spec.replicas == 0 {
		srv, err := newServer()
		if err != nil {
			return fail(err)
		}
		s.servers = append(s.servers, srv)
		if s.base, err = s.serve(tracedHandler(tr, "service", false, srv.Handler())); err != nil {
			return fail(err)
		}
	} else {
		var urls []string
		for i := 0; i < in.spec.replicas; i++ {
			srv, err := newServer()
			if err != nil {
				return fail(err)
			}
			s.servers = append(s.servers, srv)
			u, err := s.serve(tracedHandler(tr, "service", true, srv.Handler()))
			if err != nil {
				return fail(err)
			}
			urls = append(urls, u)
		}
		rt, err := cluster.NewRouter(urls, cluster.WithReplication(in.spec.replicas))
		if err != nil {
			return fail(err)
		}
		s.router = rt
		if s.base, err = s.serve(tracedHandler(tr, "router", false, rt.Handler())); err != nil {
			return fail(err)
		}
	}

	c := s.newClient(nil)
	for _, sp := range in.splits {
		id, err := c.Upload(ctx, servingPlatform, sp.Train)
		if err != nil {
			return fail(fmt.Errorf("upload: %w", err))
		}
		s.dsIDs = append(s.dsIDs, id)
	}
	for _, m := range in.models {
		id, err := c.Train(ctx, servingPlatform, s.dsIDs[m.ds], in.configs[m.family], m.seed)
		if err != nil {
			return fail(fmt.Errorf("train: %w", err))
		}
		s.modelIDs = append(s.modelIDs, id)
	}
	for mi, m := range in.models {
		if _, err := c.Predict(ctx, servingPlatform, s.modelIDs[mi], in.pools[m.ds][0]); err != nil {
			return fail(fmt.Errorf("warm predict: %w", err))
		}
	}
	return s, nil
}

// nullSystem serves a handler that drains the request body and answers
// with a precomputed label frame for the request (looked up by its request
// id): the harness's own ceiling, with no server work behind it.
func nullSystem(frame func(req int64) []byte) (*system, error) {
	s := &system{clientRg: telemetry.NewRegistry()}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", wire.ContentType)
		_, _ = w.Write(frame(requestIndex(r)))
	})
	var err error
	if s.base, err = s.serve(h); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}
