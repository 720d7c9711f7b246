package main

// metricDef names one reported metric. The tables below must list exactly
// the metrics BENCHMARK.json declares, with the same unit and direction;
// the smoke test holds the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd are the metrics a user of the system sees, printed with
// --trace 0 on every workload. Training and serving workloads fill the same
// names with their own quantity (see README.md, "Metrics").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"tail_ms", "ms", "lower"},
	{"loss", "nats", "lower"},
	{"live_heap_mb", "MB", "lower"},
}

// perLayer are the single-layer metrics printed with --trace 1. A layer a
// workload does not run reports 0: it did no work there.
var perLayer = []metricDef{
	// Dense layers, timed by the benchmark's own step body (ms per step).
	{"nn.bottom_mlp.fwd_ms", "ms", "lower"},
	{"nn.bottom_mlp.bwd_ms", "ms", "lower"},
	{"nn.top_mlp.fwd_ms", "ms", "lower"},
	{"nn.top_mlp.bwd_ms", "ms", "lower"},
	{"nn.interaction.fwd_ms", "ms", "lower"},
	{"nn.interaction.bwd_ms", "ms", "lower"},
	{"nn.loss_ms", "ms", "lower"},
	{"nn.sgd_ms", "ms", "lower"},
	{"nn.interaction.bwd_nonzero_frac", "frac", "lower"},
	// Embedding tables inside ps.Pipeline.Train, by placement (ms per step).
	{"tt.lookup_ms", "ms", "lower"},
	{"tt.update_ms", "ms", "lower"},
	{"embedding.lookup_ms", "ms", "lower"},
	{"embedding.update_ms", "ms", "lower"},
	{"ps.host_lookup_ms", "ms", "lower"},
	{"ps.host_update_ms", "ms", "lower"},
	// Parameter-server pipeline counters (per step).
	{"ps.gather_ms", "ms", "lower"},
	{"ps.apply_ms", "ms", "lower"},
	{"ps.prefetch_wait_ms", "ms", "lower"},
	{"ps.cache_hit_rate", "frac", "higher"},
	{"ps.bytes_prefetched", "B", "lower"},
	{"ps.bytes_pushed", "B", "lower"},
	{"ps.lookahead_pinned_rows", "count", "higher"},
	// Serving pool, from the pool's exact histogram count/sum.
	{"served.queue_wait_ms", "ms", "lower"},
	{"served.exec_ms", "ms", "lower"},
	{"served.coalesced_batch", "count", "higher"},
	{"served.shed", "count", "lower"},
	// Serving layers, replayed serially (ms per request).
	{"serve.build_batch_ms", "ms", "lower"},
	{"serve.tt.lookup_ms", "ms", "lower"},
	{"serve.embedding.lookup_ms", "ms", "lower"},
	{"serve.bottom_mlp.fwd_ms", "ms", "lower"},
	{"serve.interaction.fwd_ms", "ms", "lower"},
	{"serve.top_mlp.fwd_ms", "ms", "lower"},
	// Set-up.
	{"setup.build_s", "s", "lower"},
	{"setup.checkpoint_load_s", "s", "lower"},
	// Whole training step and what the layers above leave unexplained.
	{"dlrm.step_ms", "ms", "lower"},
	{"dlrm.dense_crosscheck_ms", "ms", "lower"},
	{"dlrm.unaccounted_ms", "ms", "lower"},
	// The benchmark itself.
	{"bench.trace_overhead_frac", "frac", "lower"},
	{"bench.gen_late_p99_ms", "ms", "lower"},
	{"bench.failed_frac", "frac", "lower"},
}

// nnLayers are the dense sub-layer spans of one training step, in step
// order; their sum is the dense share of the step.
var nnLayers = []string{
	"nn.bottom_mlp.fwd", "nn.interaction.fwd", "nn.top_mlp.fwd", "nn.loss",
	"nn.top_mlp.bwd", "nn.interaction.bwd", "nn.bottom_mlp.bwd", "nn.sgd",
}

// tableSpans are the table span names inside the pipeline, per placement.
var tableSpans = []string{
	"tt.lookup", "tt.update", "embedding.lookup", "embedding.update",
	"ps.host_lookup", "ps.host_update",
}

// serveLayers are the serial-replay span names of one scoring request.
var serveLayers = []string{
	"serve.build_batch", "serve.bottom_mlp.fwd", "serve.tt.lookup",
	"serve.embedding.lookup", "serve.interaction.fwd", "serve.top_mlp.fwd",
}
