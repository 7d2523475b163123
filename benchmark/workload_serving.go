package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mlaasbench/internal/client"
	"mlaasbench/internal/platforms"
	"mlaasbench/internal/rng"
	"mlaasbench/internal/telemetry"
	"mlaasbench/internal/wire"
)

// servingWorkload fixes one serving workload: its deployment shape, its
// fixed measurement rate, its latency limit and its operation mix.
type servingWorkload struct {
	name  string
	spec  servingSpec
	rate  float64 // fixed measurement rate, arrivals/s
	sloMS float64 // p99 limit for max_rps_at_slo
	// trainShare and uploadShare are the shares of arrivals that train a
	// model (half of them a never-seen key, so a real fit) or upload a
	// dataset; the rest predict. zipf > 0 skews model popularity.
	trainShare, uploadShare, zipf float64
}

var (
	predictSpec = servingSpec{
		datasets: []string{"life-00", "life-08"},
		families: []string{"mlp", "boosted", "knn", "logreg"},
		seeds:    1,
		cache:    128,
	}
	workloadPredict = servingWorkload{name: "predict", spec: predictSpec, rate: 800, sloMS: 20}
	workloadRouted  = servingWorkload{name: "routed", spec: withReplicas(predictSpec, 2), rate: 800, sloMS: 20}
	// churn's traffic is assumed, not measured: the repo records no
	// production mix. The one mix it generates itself, the fleet sweep
	// (core.RunSweepFleet: one upload per (platform, dataset), then one
	// train and one predict per config), fits and reads every model
	// exactly once. It never re-uses a key, so it cannot drive a cache
	// whose working set exceeds its capacity, which is what churn is for.
	// Each figure below is a choice, with its reason:
	//   - 48 models over a 16-model cache: a working set of 3x capacity,
	//     so misses are steady and not a warm-up effect.
	//   - Zipf(1.1) popularity: 80% of predicts land on the 16 most
	//     popular models. The cache hits most requests and still misses
	//     on every run.
	//   - 85% predicts: reads dominate a serving API.
	//   - 12% trains, half of an existing key (answered from the cache or
	//     the store) and half of a fresh key (a real fit): 30 fits/s of a
	//     few ms each keep writes visible beside reads without
	//     saturating 2 cores.
	//   - 3% uploads: the server keeps every dataset (there is no delete
	//     route), so a higher share grows the heap through the run.
	//   - 500/s: about a tenth of the closed-loop capacity measured on a
	//     2-vCPU host, so the fixed-rate latency is an unsaturated one.
	workloadChurn = servingWorkload{
		name: "churn",
		spec: servingSpec{
			datasets: []string{"life-00", "life-04", "life-08", "life-11"},
			families: []string{"logreg", "boosted", "knn", "randomforest"},
			seeds:    3,
			cache:    16,
			store:    true,
		},
		rate: 500, sloMS: 50,
		trainShare: 0.12, uploadShare: 0.03, zipf: 1.1,
	}
)

func withReplicas(s servingSpec, n int) servingSpec {
	s.replicas = n
	return s
}

// planned is one arrival of the request plan.
type planned struct {
	kind  byte // 'p' predict, 't' train existing key, 'f' train a fresh key, 'u' upload
	model int  // predict/train: model index
	batch int  // predict: batch index; fresh train/upload: dataset index
}

const planLen = 4096

func makePlan(wl servingWorkload, in *inputs, seed uint64) []planned {
	r := rng.New(seed).Split("plan") // routed replays predict's plan
	// Popularity ranks go round-robin over the families, each family's
	// models shuffled by the seed: every seed's popular set has the same
	// family mix, so the seed varies which models are hot, not how costly.
	byFamily := map[string][]int{}
	for i, m := range in.models {
		byFamily[m.family] = append(byFamily[m.family], i)
	}
	var order []int
	for k := 0; len(order) < len(in.models); k++ {
		for _, fam := range in.spec.families {
			ids := byFamily[fam]
			if k == 0 {
				r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			}
			if k < len(ids) {
				order = append(order, ids[k])
			}
		}
	}
	weights := make([]float64, len(in.models))
	for rank, m := range order {
		weights[m] = 1
		if wl.zipf > 0 {
			weights[m] = 1 / math.Pow(float64(rank+1), wl.zipf)
		}
	}
	// Exact shares of each operation, shuffled by the seed, so every seed
	// offers the same mix. Fresh trains cycle over the datasets with the
	// first family, so each is a real fit of a steady cost.
	nUpload := int(math.Round(wl.uploadShare * planLen))
	nTrain := int(math.Round(wl.trainShare / 2 * planLen))
	kinds := make([]byte, planLen)
	for i := range kinds {
		switch {
		case i < nUpload:
			kinds[i] = 'u'
		case i < nUpload+nTrain:
			kinds[i] = 't'
		case i < nUpload+2*nTrain:
			kinds[i] = 'f'
		default:
			kinds[i] = 'p'
		}
	}
	r.Shuffle(planLen, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	plan := make([]planned, planLen)
	fresh := 0
	for i, k := range kinds {
		switch k {
		case 'u':
			plan[i] = planned{kind: k, batch: r.Intn(len(in.splits))}
		case 't':
			plan[i] = planned{kind: k, model: r.Choice(weights)}
		case 'f':
			plan[i] = planned{kind: k, batch: fresh % len(in.splits)}
			fresh++
		default:
			plan[i] = planned{kind: k, model: r.Choice(weights), batch: r.Intn(batchesPerDataset)}
		}
	}
	return plan
}

// freshSeedBase keeps fresh-train seeds clear of the setup models' seeds.
const freshSeedBase = 10_000_000

// servingRun is one workload's running state: inputs, oracle, deployment,
// one client per load worker, and the oracle verdict.
type servingRun struct {
	wl      servingWorkload
	in      *inputs
	orc     *oracle
	sys     *system
	plan    []planned
	clients []*client.Client
	tr      *Tracer

	mismatches atomic.Int64
	firstErr   atomic.Value // string

	freshMu sync.Mutex
	fresh   []freshModel

	nullFrames [][][]byte // [model][batch] label frame
	null       bool       // talking to the null handler: no oracle, no records
}

type freshModel struct {
	id   string
	spec modelSpec
}

func (r *servingRun) mismatch(err error) {
	if r.mismatches.Add(1) == 1 {
		r.firstErr.Store(err.Error())
	}
}

// op performs arrival i of the plan on worker w.
func (r *servingRun) op(w int, i int64) (string, error) {
	pl := r.plan[int(i%int64(len(r.plan)))]
	c := r.clients[w]
	ctx := telemetry.WithRequestID(context.Background(), requestID(i))
	t0 := time.Now()
	switch pl.kind {
	case 'p':
		m := r.in.models[pl.model]
		labels, err := c.Predict(ctx, servingPlatform, r.sys.modelIDs[pl.model], r.in.pools[m.ds][pl.batch])
		r.tr.add(i, "client.predict", "request.predict", t0, time.Now())
		if err != nil {
			return "predict", err
		}
		if err := checkLabels(labels, r.orc.expect[pl.model][pl.batch]); err != nil && !r.null {
			r.mismatch(fmt.Errorf("predict model %d batch %d: %w", pl.model, pl.batch, err))
			return "predict", err
		}
		return "predict", nil
	case 't', 'f':
		m := r.in.models[pl.model]
		if pl.kind == 'f' {
			m = modelSpec{ds: pl.batch, family: r.in.spec.families[0], seed: freshSeedBase + uint64(i)}
		}
		id, err := c.Train(ctx, servingPlatform, r.sys.dsIDs[m.ds], r.in.configs[m.family], m.seed)
		r.tr.add(i, "client.train", "request.train", t0, time.Now())
		if err == nil && pl.kind == 'f' && !r.null {
			r.freshMu.Lock()
			r.fresh = append(r.fresh, freshModel{id: id, spec: m})
			r.freshMu.Unlock()
		}
		return "train", err
	default:
		_, err := c.Upload(ctx, servingPlatform, r.in.splits[pl.batch].Train)
		r.tr.add(i, "client.upload", "request.upload", t0, time.Now())
		return "upload", err
	}
}

// capacityOp is op without uploads. The server keeps every uploaded
// dataset (there is no delete route), so uploads at closed-loop speed
// would grow the heap in proportion to the window's own throughput.
func (r *servingRun) capacityOp(w int, i int64) (string, error) {
	if r.plan[int(i%int64(len(r.plan)))].kind == 'u' {
		return "", nil
	}
	return r.op(w, i)
}

// verdict fails the run when any response differed from the oracle.
func (r *servingRun) verdict(res *result) {
	if n := r.mismatches.Load(); n > 0 {
		res.fail("%d responses differ from the in-process oracle; first: %v", n, r.firstErr.Load())
	}
}

// verifyFresh predicts with a sample of the models trained during timing
// and checks them against models fitted in-process on the same inputs.
func (r *servingRun) verifyFresh(max int) error {
	p, err := platforms.New(servingPlatform)
	if err != nil {
		return err
	}
	r.freshMu.Lock()
	fresh := append([]freshModel(nil), r.fresh...)
	r.freshMu.Unlock()
	step := 1
	if len(fresh) > max {
		step = len(fresh) / max
	}
	c := r.sys.newClient(nil)
	for k := 0; k < len(fresh); k += step {
		f := fresh[k]
		fm, err := fitLocal(p, r.in, f.spec)
		if err != nil {
			return err
		}
		batch := r.in.pools[f.spec.ds][k%batchesPerDataset]
		got, err := c.Predict(context.Background(), servingPlatform, f.id, batch)
		if err != nil {
			return fmt.Errorf("predict fresh model %s: %w", f.id, err)
		}
		if err := checkLabels(got, fm.Predict(batch)); err != nil {
			r.mismatch(fmt.Errorf("fresh model %s: %w", f.id, err))
		}
	}
	return nil
}

// labelDigest predicts every (model, batch) pair once, checks each against
// the oracle and hashes the labels in plan-independent order: two
// deployments of the same inputs must produce the same digest.
func (r *servingRun) labelDigest() (string, error) {
	c := r.sys.newClient(nil)
	h := sha256.New()
	var buf [8]byte
	for mi, m := range r.in.models {
		for b, batch := range r.in.pools[m.ds] {
			got, err := c.Predict(context.Background(), servingPlatform, r.sys.modelIDs[mi], batch)
			if err != nil {
				return "", err
			}
			if err := checkLabels(got, r.orc.expect[mi][b]); err != nil {
				r.mismatch(fmt.Errorf("digest pass model %d batch %d: %w", mi, b, err))
			}
			for _, l := range got {
				binary.LittleEndian.PutUint64(buf[:], uint64(l))
				h.Write(buf[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// nullBody is the null handler's responses: the oracle's label
// frame for each predict of the plan, and fixed JSON ids otherwise.
func (r *servingRun) nullBody(req int64) []byte {
	pl := r.plan[int(req%int64(len(r.plan)))]
	if pl.kind != 'p' {
		return []byte(`{"id":"m-null","samples":1,"columns":1}`)
	}
	return r.nullFrames[pl.model][pl.batch]
}

func (r *servingRun) buildNullFrames() {
	r.nullFrames = make([][][]byte, len(r.orc.expect))
	for m, labels := range r.orc.expect {
		for _, l := range labels {
			r.nullFrames[m] = append(r.nullFrames[m], wire.AppendLabelsFrame(nil, l, wire.FlagLast))
		}
	}
}
