package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/dlrm"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/served"
	"repro/internal/tt"
)

// serveFactory builds the served model's skeleton: the tables of at least
// p.ServeTTRows rows TT-compressed, the rest dense, all device-resident.
func serveFactory(p params, spec data.Spec, seed uint64) served.ModelFactory {
	return func() (*dlrm.Model, error) {
		tables, _, err := dlrm.BuildTables(spec.TableRows, dlrm.TableSpec{
			Dim: p.Dim, Rank: p.Rank, TTThreshold: p.ServeTTRows, Opts: tt.EffOptions(), Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		cfg := dlrm.DefaultConfig(spec.NumDense, p.Dim)
		cfg.LR = 1.0
		cfg.Seed = seed
		return dlrm.NewModel(cfg, tables)
	}
}

// itemFeature is the table carrying the candidate item id: the largest.
func itemFeature(spec data.Spec) int {
	item := 0
	for i, r := range spec.TableRows {
		if r > spec.TableRows[item] {
			item = i
		}
	}
	return item
}

// request is one pre-generated scoring request. Its first candidate is the
// sample's own item, whose click label is known.
type request struct {
	ctx   serve.Context
	cands []int
	label float32
}

// makeRequests draws n requests from held-out dataset samples: the
// sample's features as context and a candidate list whose size follows the
// mix, the own item first and the rest drawn from items the dataset uses.
func makeRequests(d *data.Dataset, p params, item int, seed uint64) []request {
	const batch = 1024
	var samples []*data.Batch
	var pool []int
	for k := 0; k*batch < p.Requests; k++ {
		b := d.Batch(1<<24+k, batch) // far past the iterations the model trained on
		samples = append(samples, b)
		pool = append(pool, b.Sparse[item]...)
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	reqs := make([]request, p.Requests)
	for i := range reqs {
		b, s := samples[i/batch], i%batch
		sparse := make([]int, len(b.Sparse))
		for t := range sparse {
			sparse[t] = b.Sparse[t][s]
		}
		cands := make([]int, candCount(p.Mix, rng.Float64()))
		cands[0] = sparse[item]
		for c := 1; c < len(cands); c++ {
			cands[c] = pool[rng.Intn(len(pool))]
		}
		reqs[i] = request{
			ctx:   serve.Context{Dense: append([]float32(nil), b.Dense.Row(s)...), Sparse: sparse},
			cands: cands,
			label: b.Labels[s],
		}
	}
	return reqs
}

// candCount maps a uniform draw u to a candidate-list size of the mix.
func candCount(mix []candClass, u float64) int {
	for _, c := range mix {
		if u < c.Share {
			return c.N
		}
		u -= c.Share
	}
	return mix[len(mix)-1].N
}

// arrivals returns n send offsets of a Poisson process of the given rate
// per second: exponential gaps drawn from rng, so bursts queue as they do
// under independent users' traffic.
func arrivals(n int, rate float64, rng *rand.Rand) []time.Duration {
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		out[i] = time.Duration(t * float64(time.Second))
		t += rng.ExpFloat64() / rate
	}
	return out
}

// outcome is one open-loop request's result. Latency and lateness are
// measured from the request's due time.
type outcome struct {
	latency time.Duration
	late    time.Duration
	err     error
	score0  float32   // the own item's score
	scores  []float32 // every score, for the requests checked against serve.Ranker
}

// failed reports whether the request counts as failed: shed, errored, or
// answered after the deadline.
func (o *outcome) failed(deadline time.Duration) bool { return o.err != nil || o.latency > deadline }

// openLoop sends reqs[first+i] at offsets[i] from one generator goroutine,
// each on its own goroutine so a slow answer never delays the next send,
// and waits for every answer.
func openLoop(pool *served.Pool, reqs []request, first int, offsets []time.Duration, deadline time.Duration, keepEvery int) []outcome {
	out := make([]outcome, len(offsets))
	var wg sync.WaitGroup
	start := time.Now()
	for i, off := range offsets {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		wg.Add(1)
		go func(i int, due, sent time.Time) {
			defer wg.Done()
			r := &reqs[(first+i)%len(reqs)]
			scores, err := pool.ScoreDeadline(r.ctx, r.cands, deadline)
			o := &out[i]
			o.latency = time.Since(due)
			o.late = sent.Sub(due)
			o.err = err
			if err == nil {
				o.score0 = scores[0]
				if (first+i)%keepEvery == 0 {
					o.scores = scores
				}
			}
		}(i, due, sent)
	}
	wg.Wait()
	return out
}

// latenciesMS returns every outcome's latency in ms; a failed request
// counts as no faster than the deadline.
func latenciesMS(out []outcome, deadline time.Duration) []float64 {
	ms := make([]float64, len(out))
	for i := range out {
		l := out[i].latency
		if out[i].failed(deadline) && l < deadline {
			l = deadline
		}
		ms[i] = msOf(l)
	}
	return ms
}

// windowQuantile is the median, over consecutive windows of w requests,
// of each window's q-quantile latency. A spell of host noise that covers
// fewer than half the windows leaves it alone; a stall the program causes
// in most windows moves it. A run too short for four windows uses the
// whole run.
func windowQuantile(ms []float64, w int, q float64) float64 {
	if len(ms) < 4*w {
		return quantile(ms, q)
	}
	return median(windowQuantiles(ms, w, q))
}

// windowQuantiles returns each whole window's q-quantile latency.
func windowQuantiles(ms []float64, w int, q float64) []float64 {
	var qs []float64
	for k := w; k <= len(ms); k += w {
		qs = append(qs, quantile(ms[k-w:k], q))
	}
	return qs
}

// serveSetup is everything serve-rank builds before timing.
type serveSetup struct {
	item    int
	factory served.ModelFactory
	path    string // checkpoint written by setup
	reqs    []request
	opts    served.Options
}

// prepareServe trains the served model briefly, writes its checkpoint and
// generates the requests. None of it counts as set-up time: it stands in
// for the trainer that publishes checkpoints.
func prepareServe(o options, p params) (*serveSetup, error) {
	spec := data.TerabyteSpec(p.Scale)
	spec.Seed = o.seed
	d, err := data.New(spec)
	if err != nil {
		return nil, err
	}
	factory := serveFactory(p, spec, o.seed)
	m, err := factory()
	if err != nil {
		return nil, err
	}
	for it := 0; it < p.ServeTrainSteps; it++ {
		m.TrainStep(d.Batch(it, p.ServeTrainBatch))
	}
	f, err := os.CreateTemp(o.workdir, "serve-*.ckpt")
	if err != nil {
		return nil, err
	}
	path := f.Name()
	if err := f.Close(); err != nil {
		return nil, err
	}
	if err := checkpoint.SaveFile(path, m); err != nil {
		os.Remove(path)
		return nil, fmt.Errorf("write checkpoint: %w", err)
	}
	item := itemFeature(spec)
	return &serveSetup{
		item: item, factory: factory, path: path,
		reqs: makeRequests(d, p, item, o.seed),
		opts: served.Options{
			Replicas: p.Replicas, QueueDepth: 256, MaxCoalesce: 8,
			Timeout: p.Deadline, Factory: factory,
		},
	}, nil
}

// newPool builds the pool from the checkpoint p.Builds times, keeping the
// last; the returned time is the median construction.
func (s *serveSetup) newPool(p params, reg *obs.Registry) (*served.Pool, float64, error) {
	opts := s.opts
	opts.Metrics = reg
	var pool *served.Pool
	var times []float64
	for i := 0; i < p.Builds; i++ {
		if pool != nil {
			pool.Close()
		}
		runtime.GC()
		start := time.Now()
		pl, err := served.NewFromCheckpoint(s.path, s.item, p.Chunk, opts)
		if err != nil {
			return nil, 0, fmt.Errorf("served.NewFromCheckpoint: %w", err)
		}
		times = append(times, secondsOf(time.Since(start)))
		pool = pl
	}
	return pool, median(times), nil
}

// reference loads the checkpoint into a fresh skeleton, the model the
// pool's scores must match; it also returns the load time.
func (s *serveSetup) reference() (*dlrm.Model, float64, error) {
	start := time.Now()
	m, err := s.factory()
	if err != nil {
		return nil, 0, err
	}
	if err := checkpoint.LoadFile(s.path, m); err != nil {
		return nil, 0, err
	}
	return m, secondsOf(time.Since(start)), nil
}

// runServe runs serve-rank: an open loop at the fixed rate, then a
// single-client closed loop (untraced), or the traced per-layer run.
func runServe(o options, p params) (*report, error) {
	s, err := prepareServe(o, p)
	if err != nil {
		return nil, err
	}
	defer os.Remove(s.path)
	if o.trace {
		return traceServe(o, p, s)
	}
	rep := newReport()
	pool, setupS, err := s.newPool(p, nil)
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	sum := s.reqsSum()

	fixed := fixedRate(o, p, s, pool, rep)
	rep.set("setup_s", setupS)
	rep.set("p50_ms", fixed.p50)
	rep.set("tail_ms", fixed.tail)
	rep.set("loss", fixed.loss)

	rep.set("throughput_per_s", closedLoop(p, s, pool, rep, fixed.first+len(fixed.out), o.seconds*0.25))
	s.checkScores(rep, fixed.out, fixed.first)
	rep.check("serve_requests_unaltered", sameSum(sum, s.reqsSum()))
	rep.set("live_heap_mb", liveHeapMB()) // the inputs are unreachable by now
	return rep, nil
}

// fixedRun is the fixed-rate phase's outcome.
type fixedRun struct {
	first int       // request index of out[0]
	out   []outcome // measured requests, after the warm-up
	ms    []float64 // latency per measured request, from its due time
	p50   float64   // median of per-window p50s (see windowQuantile)
	tail  float64   // median of per-window p95s
	loss  float64   // BCE of the served own-item scores
}

// fixedRate runs the open loop at p.Rate: p.WarmupReqs requests first,
// whose timings are discarded, then 65% of the run measured. Every request
// counts in attempted/failed.
func fixedRate(o options, p params, s *serveSetup, pool *served.Pool, rep *report) *fixedRun {
	rng := rand.New(rand.NewSource(int64(o.seed) + 1))
	warm := openLoop(pool, s.reqs, 0, arrivals(p.WarmupReqs, p.Rate, rng), p.Deadline, math.MaxInt32)
	n := max(int(p.Rate*o.seconds*0.65), 1)
	run := &fixedRun{first: len(warm)}
	run.out = openLoop(pool, s.reqs, run.first, arrivals(n, p.Rate, rng), p.Deadline, p.KeepEvery)
	run.ms = latenciesMS(run.out, p.Deadline)
	run.p50 = windowQuantile(run.ms, p.WindowReqs, 0.5)
	run.tail = windowQuantile(run.ms, p.WindowReqs, tailQ)
	late := make([]float64, n)
	var bce float64
	var scored int
	for i := range run.out {
		a := &run.out[i]
		late[i] = msOf(a.late)
		if a.err == nil {
			bce += logLoss(a.score0, s.reqs[(run.first+i)%len(s.reqs)].label)
			scored++
		}
	}
	for _, phase := range [][]outcome{warm, run.out} {
		for i := range phase {
			if phase[i].failed(p.Deadline) {
				rep.failed++
			}
		}
		rep.attempted += int64(len(phase))
	}
	run.loss = bce / float64(max(scored, 1))
	rep.set("bench.gen_late_p99_ms", quantile(late, 0.99))
	wp50 := windowQuantiles(run.ms, p.WindowReqs, 0.5)
	rep.note("window p50 quartiles %.3f %.3f %.3f ms over %d windows", quantile(wp50, 0.25), median(wp50), quantile(wp50, 0.75), len(wp50))
	rep.note("fixed poisson rate=%.0f req/s requests=%d+%d warm-up failed=%d window-median p50=%.3f p95=%.3f p99=%.3f ms; whole run p50=%.3f p95=%.3f p99=%.3f ms; gen_late_p99=%.3f ms",
		p.Rate, n, len(warm), rep.failed, run.p50, run.tail, windowQuantile(run.ms, p.WindowReqs, 0.99),
		median(run.ms), quantile(run.ms, 0.95), quantile(run.ms, 0.99), rep.metrics["bench.gen_late_p99_ms"])
	return run
}

// logLoss is the binary cross-entropy of probability q against label y.
func logLoss(q, y float32) float64 {
	const eps = 1e-7
	p := math.Min(math.Max(float64(q), eps), 1-eps)
	if y > 0.5 {
		return -math.Log(p)
	}
	return -math.Log(1 - p)
}

// closedLoop sends the requests one after another from a single client,
// each as soon as the previous one is answered, for seconds. It returns
// the median over windows of p.LoopWindow of the candidate rows scored per
// second — rows, not requests, because a request's cost follows its
// candidate count; the median for the reason windowQuantile gives — and
// counts its requests in attempted/failed.
func closedLoop(p params, s *serveSetup, pool *served.Pool, rep *report, first int, seconds float64) float64 {
	start := time.Now()
	windows := make([]float64, max(int(seconds/p.LoopWindow.Seconds()), 1))
	var sent, failed int64
	for ; ; sent++ {
		w := int(time.Since(start) / p.LoopWindow)
		if w >= len(windows) {
			break
		}
		r := &s.reqs[(first+int(sent))%len(s.reqs)]
		if _, err := pool.ScoreDeadline(r.ctx, r.cands, p.Deadline); err != nil {
			failed++
			continue
		}
		windows[w] += float64(len(r.cands)) / p.LoopWindow.Seconds()
	}
	rate := median(windows)
	rep.attempted += sent
	rep.failed += failed
	rep.note("closed loop requests=%d failed=%d rows/s windows %.0f", sent, failed, windows)
	return rate
}

// checkScores checks that every kept pool answer bit-matches
// serve.Ranker.Score on the checkpointed model, the pool's documented
// contract.
func (s *serveSetup) checkScores(rep *report, out []outcome, first int) {
	ref, _, err := s.reference()
	if err != nil {
		rep.check("serve_scores_match_ranker", err)
		return
	}
	ranker, err := serve.NewRanker(ref, s.item, 256)
	if err != nil {
		rep.check("serve_scores_match_ranker", err)
		return
	}
	checked := 0
	for i := range out {
		if out[i].scores == nil {
			continue
		}
		r := &s.reqs[(first+i)%len(s.reqs)]
		want, err := ranker.Score(r.ctx, r.cands)
		if err == nil {
			err = sameBits(out[i].scores, want)
		}
		if err != nil {
			rep.check("serve_scores_match_ranker", fmt.Errorf("request %d: %w", first+i, err))
			return
		}
		checked++
	}
	if checked == 0 {
		rep.check("serve_scores_match_ranker", errors.New("no answered request was sampled"))
		return
	}
	rep.note("checked %d pool answers against serve.Ranker", checked)
	rep.check("serve_scores_match_ranker", nil)
}

// sameBits reports the first score whose bits differ.
func sameBits(got, want []float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d scores, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return fmt.Errorf("score %d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// reqsSum fingerprints the request set, so a run notices if anything
// modified the inputs it replays.
func (s *serveSetup) reqsSum() uint64 {
	h := uint64(1469598103934665603)
	mixIn := func(v uint64) { h = (h ^ v) * 1099511628211 }
	for i := range s.reqs {
		r := &s.reqs[i]
		for _, v := range r.ctx.Dense {
			mixIn(uint64(math.Float32bits(v)))
		}
		for _, v := range r.ctx.Sparse {
			mixIn(uint64(v))
		}
		for _, v := range r.cands {
			mixIn(uint64(v))
		}
	}
	return h
}

func sameSum(before, after uint64) error {
	if before != after {
		return fmt.Errorf("request fingerprint %x changed to %x", before, after)
	}
	return nil
}
