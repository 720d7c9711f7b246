package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dlrm"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Trace lanes (Chrome trace thread ids) for the benchmark's spans.
const (
	tidTables = 1 // table calls inside ps.Pipeline.Train (the worker)
	tidDense  = 2 // the benchmark's own dense step body
	tidServe  = 3 // serial serving replay
)

// spanTable forwards every call to the wrapped table and records one span
// per Lookup and per Update. The span category names the table position.
type spanTable struct {
	dlrm.Table
	lookup, update, cat string
	tr                  *obs.Tracer
}

func (s *spanTable) Lookup(indices, offsets []int) *tensor.Matrix {
	sp := s.tr.Begin(s.lookup, s.cat, tidTables)
	defer sp.End()
	return s.Table.Lookup(indices, offsets)
}

func (s *spanTable) Update(indices, offsets []int, dOut *tensor.Matrix, lr float32) {
	sp := s.tr.Begin(s.update, s.cat, tidTables)
	defer sp.End()
	s.Table.Update(indices, offsets, dOut, lr)
}

// traceTrain is the traced per-layer run of a training workload, in three
// phases of a third of the run each:
//
//	A. untraced pipelined training: the throughput baseline and the ps.*
//	   counters per step;
//	B. the same training with every model table wrapped in a spanTable:
//	   table time per step by placement, and the step time;
//	C. the benchmark's own step body over device-resident tables, one span
//	   per dense sub-layer: the nn.* times.
//
// dlrm.unaccounted_ms is B's step time minus B's table and prefetch-wait
// time minus C's dense layers.
func traceTrain(o options, p params, sys *core.System, src *replay, rep *report, buildS float64) error {
	phase := o.seconds / 3
	pipe := sys.Pipeline

	a, err := trainTimed(pipe, src, 0, p, phase)
	if err != nil {
		return err
	}
	steps := float64(a.after.Steps - a.before.Steps)
	perStep := func(d time.Duration) float64 { return msOf(d) / steps }
	rep.set("ps.gather_ms", perStep(a.after.GatherTime-a.before.GatherTime))
	rep.set("ps.apply_ms", perStep(a.after.ApplyTime-a.before.ApplyTime))
	rep.set("ps.prefetch_wait_ms", perStep(a.after.PrefetchWait-a.before.PrefetchWait))
	hits := a.after.CacheHits - a.before.CacheHits
	misses := a.after.CacheMisses - a.before.CacheMisses
	rep.set("ps.cache_hit_rate", float64(hits)/float64(max(hits+misses, 1)))
	rep.set("ps.bytes_prefetched", float64(a.after.BytesPrefetched-a.before.BytesPrefetched)/steps)
	rep.set("ps.bytes_pushed", float64(a.after.BytesPushed-a.before.BytesPushed)/steps)
	rep.set("ps.lookahead_pinned_rows", float64(a.after.LookaheadPinnedRows-a.before.LookaheadPinnedRows)/steps)

	tr := obs.NewTracer(nil)
	tr.SetThreadName(tidTables, "pipeline worker: tables")
	tr.SetThreadName(tidDense, "benchmark step body: dense layers")
	m := sys.Model()
	orig := append([]dlrm.Table(nil), m.Tables...)
	for i, t := range orig {
		lookup, update := placementSpans(sys.Placements[i])
		m.Tables[i] = &spanTable{Table: t, lookup: lookup, update: update, cat: fmt.Sprintf("table%02d", i), tr: tr}
	}
	b, err := trainTimed(pipe, src, a.next, p, phase)
	copy(m.Tables, orig)
	if err != nil {
		return err
	}
	nsteps := len(b.marks) - 1
	stepMS := msOf(b.marks[nsteps].Sub(b.marks[0])) / float64(nsteps)
	tables := spanTotals(tr.Spans(), b.marks[0].Sub(tr.Epoch()), b.marks[nsteps].Sub(tr.Epoch()))
	var tablesMS float64
	for _, name := range tableSpans {
		ms := msOf(tables[name]) / float64(nsteps)
		rep.set(name+"_ms", ms)
		tablesMS += ms
	}
	waitMS := msOf(b.after.PrefetchWait-b.before.PrefetchWait) / float64(b.after.Steps-b.before.Steps)

	dense, nonzero, cLosses := denseSteps(p, sys, src, b.next, phase, tr)
	var denseMS float64
	for _, name := range nnLayers {
		rep.set(name+"_ms", dense[name])
		denseMS += dense[name]
	}
	rep.set("nn.interaction.bwd_nonzero_frac", nonzero)

	crosscheck := stepMS - tablesMS - waitMS
	rep.set("dlrm.step_ms", stepMS)
	rep.set("dlrm.dense_crosscheck_ms", crosscheck)
	rep.set("dlrm.unaccounted_ms", crosscheck-denseMS)
	rep.note("share of step: dense=%.3f tables=%.3f prefetch_wait=%.3f unaccounted=%.3f (step %.2f ms over %d steps)",
		denseMS/stepMS, tablesMS/stepMS, waitMS/stepMS, (crosscheck-denseMS)/stepMS, stepMS, nsteps)

	untraced := median(a.windowRates(p.Window, p.Batch))
	traced := median(b.windowRates(p.Window, p.Batch))
	rep.set("bench.trace_overhead_frac", (untraced-traced)/untraced)
	rep.note("throughput untraced=%.1f traced=%.1f samples/s", untraced, traced)
	rep.set("setup.build_s", buildS)
	zero(rep, "setup.checkpoint_load_s", "bench.gen_late_p99_ms", "bench.failed_frac",
		"served.queue_wait_ms", "served.exec_ms", "served.coalesced_batch", "served.shed")
	for _, name := range serveLayers {
		rep.set(name+"_ms", 0)
	}

	losses := append(append(append([]float64(nil), a.losses...), b.losses...), cLosses...)
	lossChecks(rep, losses, p.Cycle, p.LossCycle)
	rep.attempted = int64(len(losses))
	return writeTrace(o, tr, rep)
}

// denseSteps trains with the benchmark's own step body — the same calls,
// in the same order, as dlrm.Model.TrainStep — over device-resident tables
// (the pipeline's host-memory bags in the host positions), one warm step
// and then for seconds, recording one span per dense sub-layer. It returns
// the mean ms per step of each layer, the share of pairwise upstream
// gradients Interaction.Backward does not skip, and the losses.
func denseSteps(p params, sys *core.System, src *replay, iter int, seconds float64, tr *obs.Tracer) (map[string]float64, float64, []float64) {
	m := sys.Model()
	tables := make([]dlrm.Table, len(m.Tables))
	for i := range tables {
		tables[i] = tableOf(sys, i)
	}
	embs := make([]*tensor.Matrix, len(tables))
	var losses []float64
	var nonzero, pairs int64
	step := func(b *data.Batch, tr *obs.Tracer) {
		span := func(name string) obs.SpanHandle { return tr.Begin(name, "dense", tidDense) }
		sp := span("nn.bottom_mlp.fwd")
		z0 := m.Bottom.Forward(b.Dense)
		sp.End()
		sp = span("dlrm.tables.lookup")
		for t, tbl := range tables {
			embs[t] = tbl.Lookup(b.Sparse[t], b.Offsets)
		}
		sp.End()
		sp = span("nn.interaction.fwd")
		x := m.Interaction.Forward(z0, embs)
		sp.End()
		sp = span("nn.top_mlp.fwd")
		logits := m.Top.Forward(x)
		sp.End()
		sp = span("nn.loss")
		loss, dLogits := nn.BCEWithLogits(logits, b.Labels)
		sp.End()
		sp = span("nn.top_mlp.bwd")
		dx := m.Top.Backward(dLogits)
		sp.End()
		if tr != nil {
			nz, all := pairwiseNonzero(dx, m.Interaction.Dim)
			nonzero += nz
			pairs += all
		}
		sp = span("nn.interaction.bwd")
		dDense, dEmbs := m.Interaction.Backward(dx)
		sp.End()
		sp = span("nn.bottom_mlp.bwd")
		m.Bottom.Backward(dDense)
		sp.End()
		sp = span("dlrm.tables.update")
		for t, tbl := range tables {
			tbl.Update(b.Sparse[t], b.Offsets, dEmbs[t], m.Cfg.LR)
		}
		sp.End()
		sp = span("nn.sgd")
		m.ApplyStep()
		sp.End()
		losses = append(losses, float64(loss))
	}

	step(src.Batch(iter, p.Batch), nil)
	iter++
	from := time.Since(tr.Epoch())
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	n := 0
	for n < 2 || time.Now().Before(deadline) {
		b := src.Batch(iter, p.Batch) // copied outside the spans
		step(b, tr)
		iter++
		n++
	}
	out := map[string]float64{}
	for name, d := range spanTotals(tr.Spans(), from, time.Duration(1<<62)) {
		out[name] = msOf(d) / float64(n)
	}
	return out, float64(nonzero) / float64(max(pairs, 1)), losses
}

// pairwiseNonzero counts the non-zero pairwise-term gradients in the
// interaction's upstream gradient dx (columns at and after dim), the
// entries Interaction.Backward does not skip.
func pairwiseNonzero(dx *tensor.Matrix, dim int) (nonzero, all int64) {
	for s := 0; s < dx.Rows; s++ {
		for _, g := range dx.Row(s)[dim:] {
			if g != 0 {
				nonzero++
			}
		}
	}
	return nonzero, int64(dx.Rows * (dx.Cols - dim))
}

// zero reports layers the workload does not run as 0 ms of work.
func zero(rep *report, names ...string) {
	for _, n := range names {
		rep.set(n, 0)
	}
}

// writeTrace writes the run's spans as a Chrome trace under the workdir.
func writeTrace(o options, tr *obs.Tracer, rep *report) error {
	dir := filepath.Join(o.workdir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := tr.WriteChromeTraceFile(path); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	rep.note("trace %s spans=%d dropped=%d", path, len(tr.Spans()), tr.Dropped())
	return nil
}
