package main

import "time"

// params sizes every workload. "full" is the benchmark; "tiny" keeps the
// same code paths at toy sizes for the smoke test.
type params struct {
	Scale float64 // terabyte-like preset cardinality scale
	Dim   int     // embedding dimension
	Rank  int     // TT rank

	// train-onehot.
	Batch      int // samples per step
	Cycle      int // distinct pre-generated batches, replayed in order; also the loss window
	LossCycle  int // the reported loss is the mean over steps [LossCycle*Cycle, (LossCycle+1)*Cycle)
	Window     int // steps per throughput window
	Warmup     int // steps trained before the clock starts
	Builds     int // set-ups per run; setup_s is their median
	QueueDepth int
	Lookahead  int
	// Profiling batches core.Build draws to derive the reordering.
	ProfileBatches, ProfileBatchSize int

	// serve-rank.
	ServeTTRows     int // tables with at least this many rows are TT in the served model
	ServeTrainSteps int // steps trained before the checkpoint is written
	ServeTrainBatch int
	Replicas        int
	Chunk           int           // rows per forward pass
	Rate            float64       // fixed open-loop rate, requests/s
	WarmupReqs      int           // requests sent at Rate before timing
	LoopWindow      time.Duration // closed-loop throughput window
	Deadline        time.Duration // a request answered later than this failed
	Requests        int           // distinct pre-generated requests
	Mix             []candClass   // candidate-list sizes
	WindowReqs      int           // requests per latency window (200 leaves 10 beyond the p95)
	KeepEvery       int           // every k-th served request is checked against serve.Ranker
}

// candClass is one candidate-list size and its share of requests.
type candClass struct {
	N     int
	Share float64
}

var presets = map[string]params{
	"full": {
		Scale: 0.01, Dim: 32, Rank: 16,
		Batch: 2048, Cycle: 16, LossCycle: 4, Window: 4, Warmup: 4, Builds: 5,
		QueueDepth: 4, Lookahead: 16, ProfileBatches: 16, ProfileBatchSize: 512,

		ServeTTRows: 10_000, ServeTrainSteps: 16, ServeTrainBatch: 512,
		Replicas: 2, Chunk: 256, Rate: 400,
		WarmupReqs: 800, LoopWindow: time.Second,
		Deadline: 250 * time.Millisecond,
		Requests: 4096, Mix: []candClass{{16, 0.6}, {64, 0.3}, {256, 0.1}},
		WindowReqs: 200, KeepEvery: 16,
	},
	"tiny": {
		Scale: 0.001, Dim: 8, Rank: 4,
		Batch: 64, Cycle: 4, LossCycle: 1, Window: 2, Warmup: 2, Builds: 2,
		QueueDepth: 2, Lookahead: 4, ProfileBatches: 2, ProfileBatchSize: 64,

		ServeTTRows: 10_000, ServeTrainSteps: 4, ServeTrainBatch: 64,
		Replicas: 2, Chunk: 32, Rate: 100,
		WarmupReqs: 10, LoopWindow: 100 * time.Millisecond,
		Deadline: 2 * time.Second,
		Requests: 64, Mix: []candClass{{4, 0.7}, {16, 0.3}},
		WindowReqs: 20, KeepEvery: 4,
	},
}
