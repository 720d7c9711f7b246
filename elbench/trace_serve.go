package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/data"
	"repro/internal/dlrm"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/tt"
)

// traceServe is serve-rank's traced per-layer run: the fixed-rate open
// loop against a pool with its metrics registry attached (the served.*
// means), then the same requests replayed serially through serve.Batcher
// and the model's layers, alternating untraced and traced passes (the
// serve.* times and the tracing overhead).
func traceServe(o options, p params, s *serveSetup) (*report, error) {
	rep := newReport()
	reg := obs.NewRegistry()
	pool, _, err := s.newPool(p, reg)
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	var loads []float64
	var ref *dlrm.Model
	for i := 0; i < p.Builds; i++ {
		m, sec, err := s.reference()
		if err != nil {
			return nil, fmt.Errorf("load checkpoint: %w", err)
		}
		ref, loads = m, append(loads, sec)
	}
	rep.set("setup.checkpoint_load_s", median(loads))

	fixed := fixedRate(o, p, s, pool, rep)
	s.checkScores(rep, fixed.out, fixed.first)
	snap := reg.Snapshot()
	meanOf := func(name string, scale float64) float64 {
		h := snap.Histograms[name]
		return h.Sum / float64(max(h.Count, 1)) / scale
	}
	rep.set("served.queue_wait_ms", meanOf("serve_queue_wait_ns", 1e6))
	rep.set("served.exec_ms", meanOf("serve_exec_ns", 1e6))
	rep.set("served.coalesced_batch", meanOf("serve_coalesced_batch_size", 1))
	rep.set("served.shed", float64(snap.Counters["serve_shed_overload"]+snap.Counters["serve_shed_deadline"]))

	tr := obs.NewTracer(nil)
	tr.SetThreadName(tidServe, "serial replay: serving layers")
	rp, err := newServeReplay(ref, s.item, p.Chunk)
	if err != nil {
		return nil, err
	}
	pass := s.reqs[:min(len(s.reqs), 256)]
	var untraced, traced time.Duration
	var tracedReqs int
	deadline := time.Now().Add(time.Duration(o.seconds * 0.4 * float64(time.Second)))
	for first := true; first || time.Now().Before(deadline); first = false {
		untraced += rp.run(pass, nil)
		traced += rp.run(pass, tr)
		tracedReqs += len(pass)
		if first {
			rep.check("serve_replay_matches_ranker", rp.verify(pass))
		}
	}
	for name, d := range spanTotals(tr.Spans(), 0, time.Duration(1<<62)) {
		rep.set(name+"_ms", msOf(d)/float64(tracedReqs))
	}
	for _, name := range serveLayers {
		if _, ok := rep.metrics[name+"_ms"]; !ok {
			rep.set(name+"_ms", 0) // no table of that kind
		}
	}
	rep.set("bench.trace_overhead_frac", 1-untraced.Seconds()/traced.Seconds())
	rep.set("bench.failed_frac", float64(rep.failed)/float64(rep.attempted))
	rep.note("serial replay requests=%d untraced=%.1f req/s traced=%.1f req/s",
		tracedReqs, float64(tracedReqs)/untraced.Seconds(), float64(tracedReqs)/traced.Seconds())

	for _, name := range nnLayers {
		rep.set(name+"_ms", 0)
	}
	for _, name := range tableSpans {
		rep.set(name+"_ms", 0)
	}
	zero(rep, "nn.interaction.bwd_nonzero_frac", "ps.gather_ms", "ps.apply_ms", "ps.prefetch_wait_ms",
		"ps.cache_hit_rate", "ps.bytes_prefetched", "ps.bytes_pushed", "ps.lookahead_pinned_rows",
		"setup.build_s", "dlrm.step_ms", "dlrm.dense_crosscheck_ms", "dlrm.unaccounted_ms")
	if err := writeTrace(o, tr, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// serveReplay scores requests serially through the public serving layers:
// serve.Batcher builds each chunk, then the model's bottom MLP, tables,
// interaction and top MLP run one by one, exactly as dlrm.Model.Forward
// calls them.
type serveReplay struct {
	m       *dlrm.Model
	ranker  *serve.Ranker
	batcher *serve.Batcher
	chunk   int
	lookup  []string // span name per table
	embs    []*tensor.Matrix
	scores  [][]float32 // last run's scores per request
}

func newServeReplay(m *dlrm.Model, item, chunk int) (*serveReplay, error) {
	ranker, err := serve.NewRanker(m, item, chunk)
	if err != nil {
		return nil, err
	}
	rp := &serveReplay{m: m, ranker: ranker, batcher: ranker.NewBatcher(), chunk: chunk,
		embs: make([]*tensor.Matrix, len(m.Tables))}
	for _, t := range m.Tables {
		name := "serve.embedding.lookup"
		if _, ok := t.(*tt.Table); ok {
			name = "serve.tt.lookup"
		}
		rp.lookup = append(rp.lookup, name)
	}
	return rp, nil
}

// run scores reqs, recording spans on tr (nil: untraced), and returns the
// elapsed time.
func (rp *serveReplay) run(reqs []request, tr *obs.Tracer) time.Duration {
	rp.scores = rp.scores[:0]
	start := time.Now()
	for i := range reqs {
		r := &reqs[i]
		out := make([]float32, len(r.cands))
		for s := 0; s < len(r.cands); s += rp.chunk {
			e := min(s+rp.chunk, len(r.cands))
			sp := tr.Begin("serve.build_batch", "serve", tidServe)
			b := rp.batcher.Build(r.ctx, r.cands[s:e])
			sp.End()
			nn.SigmoidInto(out[s:e], rp.forward(b, tr).Data)
		}
		rp.scores = append(rp.scores, out)
	}
	return time.Since(start)
}

// forward is dlrm.Model.Forward with a span around each layer call.
func (rp *serveReplay) forward(b *data.Batch, tr *obs.Tracer) *tensor.Matrix {
	m := rp.m
	sp := tr.Begin("serve.bottom_mlp.fwd", "serve", tidServe)
	z0 := m.Bottom.Forward(b.Dense)
	sp.End()
	for t, tbl := range m.Tables {
		sp = tr.Begin(rp.lookup[t], "serve", tidServe)
		rp.embs[t] = tbl.Lookup(b.Sparse[t], b.Offsets)
		sp.End()
	}
	sp = tr.Begin("serve.interaction.fwd", "serve", tidServe)
	x := m.Interaction.Forward(z0, rp.embs)
	sp.End()
	sp = tr.Begin("serve.top_mlp.fwd", "serve", tidServe)
	defer sp.End()
	return m.Top.Forward(x)
}

// verify checks the last run's scores bit-match serve.Ranker.Score, so
// the layer-by-layer replay times the same computation the pool serves.
func (rp *serveReplay) verify(reqs []request) error {
	if len(rp.scores) != len(reqs) {
		return errors.New("replay scored a different request count")
	}
	for i := range reqs {
		want, err := rp.ranker.Score(reqs[i].ctx, reqs[i].cands)
		if err == nil {
			err = sameBits(rp.scores[i], want)
		}
		if err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
	}
	return nil
}
