package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dlrm"
	"repro/internal/ps"
	"repro/internal/tensor"
	"repro/internal/tt"
)

// trainConfig is the EL-Rec system train-onehot builds: the terabyte-like
// preset, the largest table TT-compressed on the device, the small tables
// dense on the device, and the tables of at least a quarter of the largest
// one's rows on the host behind the parameter server, because the device
// budget holds exactly the first two groups.
func trainConfig(p params, seed uint64) (core.Config, error) {
	spec := data.TerabyteSpec(p.Scale)
	spec.Seed = seed
	cfg := core.DefaultConfig(spec)
	cfg.Model.EmbDim = p.Dim
	cfg.Model.Seed = seed
	cfg.Rank = p.Rank
	cfg.QueueDepth = p.QueueDepth
	cfg.Lookahead = p.Lookahead
	cfg.ProfileBatches = p.ProfileBatches
	cfg.ProfileBatchSize = p.ProfileBatchSize
	cfg.Seed = seed

	largest := 0
	for _, r := range spec.TableRows {
		largest = max(largest, r)
	}
	cfg.TTThreshold = largest
	var budget int64
	for _, r := range spec.TableRows {
		switch {
		case r >= largest:
			shape, err := tt.NewShape(r, p.Dim, p.Rank)
			if err != nil {
				return cfg, err
			}
			budget += shape.FootprintBytes()
		case r < largest/4:
			budget += int64(r) * int64(p.Dim) * 4
		}
	}
	cfg.Device.HBMBytes = budget
	cfg.HBMReserve = 0
	return cfg, nil
}

// buildSystem runs core.Build p.Builds times and keeps the last system;
// the returned time is the median build. Input generation is not part of
// it (core.Build's own reordering profile is).
func buildSystem(cfg core.Config, builds int) (*core.System, float64, error) {
	var sys *core.System
	var times []float64
	for i := 0; i < builds; i++ {
		sys = nil
		runtime.GC() // collect the previous build outside the timed section
		start := time.Now()
		s, err := core.Build(cfg)
		if err != nil {
			return nil, 0, fmt.Errorf("core.Build: %w", err)
		}
		times = append(times, secondsOf(time.Since(start)))
		sys = s
	}
	return sys, median(times), nil
}

// placementCounts counts tables per placement.
func placementCounts(sys *core.System) map[core.Placement]int {
	n := map[core.Placement]int{}
	for _, pl := range sys.Placements {
		n[pl]++
	}
	return n
}

// runTrain runs train-onehot.
func runTrain(o options, p params) (*report, error) {
	cfg, err := trainConfig(p, o.seed)
	if err != nil {
		return nil, err
	}
	sys, buildS, err := buildSystem(cfg, p.Builds)
	if err != nil {
		return nil, err
	}
	n := placementCounts(sys)
	if sys.Pipeline == nil || n[core.PlaceTTDevice] != 1 || n[core.PlaceHost] == 0 {
		return nil, fmt.Errorf("placement %v: want one TT table on the device and host tables behind the pipeline", n)
	}
	src := newReplay(sys.Source(), p.Cycle, p.Batch)
	rep := newReport()
	rep.note("placement tt-device=%d dense-device=%d host=%d batch=%d",
		n[core.PlaceTTDevice], n[core.PlaceDenseDevice], n[core.PlaceHost], p.Batch)
	if o.trace {
		if err := traceTrain(o, p, sys, src, rep, buildS); err != nil {
			return nil, err
		}
		return rep, nil
	}

	run, err := trainTimed(sys.Pipeline, src, 0, p, o.seconds)
	if err != nil {
		return nil, err
	}
	steps := run.stepMS()
	rep.set("setup_s", buildS)
	rep.set("throughput_per_s", median(run.windowRates(p.Window, p.Batch)))
	rep.set("p50_ms", median(steps))
	rep.set("tail_ms", quantile(steps, tailQ))
	rep.set("loss", lossChecks(rep, run.losses, p.Cycle, p.LossCycle))
	rep.attempted = int64(len(run.losses))
	rep.note("timed steps=%d windows=%d tail_quantile=%.2f", len(steps), len(steps)/p.Window, tailQ)
	rep.set("live_heap_mb", liveHeapMB()) // the inputs are unreachable by now
	runtime.KeepAlive(sys)
	return rep, nil
}

// timedTrain is one pipelined training call measured from outside.
type timedTrain struct {
	// marks[0] is when the first step after the warm-up reached the model's
	// first table; marks[k] is when the k-th step after it did, so
	// marks[k]-marks[k-1] is one whole step.
	marks  []time.Time
	losses []float64 // every step's loss, in iteration order
	next   int       // first iteration not trained
	before ps.Stats  // pipeline counters at marks[0]
	after  ps.Stats  // pipeline counters after the drain
}

// stepClock forwards to the model's first table, whose Lookup is the first
// table call of every model step, and reads the clock there once per step:
// the step boundaries. It records no spans. After warm steps it keeps
// marks for dur, then cancels the training call.
type stepClock struct {
	dlrm.Table
	run    *timedTrain
	pipe   *ps.Pipeline
	warm   int
	dur    time.Duration
	cancel func()
	seen   int
}

func (c *stepClock) Lookup(indices, offsets []int) *tensor.Matrix {
	now := time.Now()
	c.seen++
	switch {
	case c.seen == c.warm+1:
		c.run.marks = append(c.run.marks, now)
		c.run.before = c.pipe.Stats()
	case c.seen > c.warm+1:
		c.run.marks = append(c.run.marks, now)
		if now.Sub(c.run.marks[0]) >= c.dur {
			c.cancel()
		}
	}
	return c.Table.Lookup(indices, offsets)
}

// trainTimed runs pipe.Train from startIter until seconds have passed after
// p.Warmup steps, then cancels; Train drains gracefully, finishing the step
// in flight.
func trainTimed(pipe *ps.Pipeline, src ps.BatchSource, startIter int, p params, seconds float64) (*timedTrain, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	run := &timedTrain{}
	m := pipe.Model()
	first := m.Tables[0]
	m.Tables[0] = &stepClock{Table: first, run: run, pipe: pipe, warm: p.Warmup,
		dur: time.Duration(seconds * float64(time.Second)), cancel: cancel}
	res, err := pipe.Train(ctx, src, startIter, math.MaxInt32, p.Batch)
	m.Tables[0] = first
	if err != nil && !errors.Is(err, context.Canceled) {
		return nil, fmt.Errorf("ps.Pipeline.Train: %w", err)
	}
	if !res.Resumable {
		return nil, fmt.Errorf("ps.Pipeline.Train left the tables inconsistent")
	}
	if len(run.marks) < 2 {
		return nil, fmt.Errorf("only %d steps timed after warm-up", len(run.marks))
	}
	run.after = pipe.Stats()
	run.losses = res.Curve.Losses
	run.next = res.NextIter
	return run, nil
}

// stepMS returns each timed step's duration in milliseconds.
func (t *timedTrain) stepMS() []float64 {
	var out []float64
	for k := 1; k < len(t.marks); k++ {
		out = append(out, msOf(t.marks[k].Sub(t.marks[k-1])))
	}
	return out
}

// windowRates returns samples/s over consecutive windows of w steps.
func (t *timedTrain) windowRates(w, batch int) []float64 {
	var out []float64
	for k := w; k < len(t.marks); k += w {
		out = append(out, float64(w*batch)/secondsOf(t.marks[k].Sub(t.marks[k-w])))
	}
	return out
}

// lossChecks checks that every loss is finite and that loss window k is
// below window 0, and returns window k's mean BCE. A window is one replay
// cycle of the given length, so each holds every batch exactly once. The
// reported window is fixed, not the last one, so that the figure depends
// on the seed alone and not on how many steps fit in the run; a run that
// does not reach it fails.
func lossChecks(rep *report, losses []float64, cycle, k int) float64 {
	for i, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			rep.check("train_loss_finite", fmt.Errorf("step %d loss %v", i, l))
			return math.NaN()
		}
	}
	rep.check("train_loss_finite", nil)
	if len(losses) < (k+1)*cycle {
		rep.check("train_loss_decreases", fmt.Errorf("%d steps: loss window %d of %d steps not reached", len(losses), k, cycle))
		return math.NaN()
	}
	first, kth := mean(losses[:cycle]), mean(losses[k*cycle:(k+1)*cycle])
	if !(kth < first) {
		rep.check("train_loss_decreases", fmt.Errorf("window %d %.6f not below first %.6f", k, kth, first))
	} else {
		rep.check("train_loss_decreases", nil)
	}
	rep.note("loss first_window=%.6f window_%d=%.6f steps=%d", first, k, kth, len(losses))
	return kth
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// liveHeapMB is the heap in use after forced collections, in MiB. The
// second collection empties the sync.Pool victim caches (the GEMM packing
// buffers), whose contents depend on timing, not on what the program keeps.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// placementSpans names a table's lookup and update spans by placement.
func placementSpans(pl core.Placement) (lookup, update string) {
	switch pl {
	case core.PlaceTTDevice:
		return "tt.lookup", "tt.update"
	case core.PlaceDenseDevice:
		return "embedding.lookup", "embedding.update"
	}
	return "ps.host_lookup", "ps.host_update"
}

// tableOf returns the device-resident table behind position i: the model's
// own table, or the pipeline's host-memory bag for a host placement (the
// pipeline's host adapters only work inside Train).
func tableOf(sys *core.System, i int) dlrm.Table {
	if sys.Placements[i] != core.PlaceHost {
		return sys.Model().Tables[i]
	}
	h := 0
	for _, pl := range sys.Placements[:i] {
		if pl == core.PlaceHost {
			h++
		}
	}
	return sys.Pipeline.HostBag(h)
}
