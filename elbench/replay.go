package main

import (
	"fmt"
	"sync"

	"repro/internal/data"
	"repro/internal/ps"
)

// replay is a ps.BatchSource over batches generated before any timing:
// iteration i replays stored batch i mod len. The stored batches are never
// handed out — every Batch and BatchIndices call returns a fresh copy — so
// nothing the trainer does to a batch can change a later replay. It also
// implements data.SparseSource, so the lookahead planner reads the same
// replayed ids instead of synthesizing its own.
type replay struct {
	size    int
	batches []*data.Batch
}

// newReplay generates n batches of size samples from src (iterations
// 0..n-1), on two goroutines.
func newReplay(src ps.BatchSource, n, size int) *replay {
	r := &replay{size: size, batches: make([]*data.Batch, n)}
	const gen = 2
	var wg sync.WaitGroup
	for g := 0; g < gen; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += gen {
				r.batches[i] = src.Batch(i, size)
			}
		}(g)
	}
	wg.Wait()
	return r
}

func (r *replay) slot(iter, size int) *data.Batch {
	if size != r.size {
		// Only a benchmark bug can get here: the trainers are handed r.size.
		panic(fmt.Sprintf("replay: asked for batch size %d, generated %d", size, r.size))
	}
	return r.batches[iter%len(r.batches)]
}

// Batch returns a fresh copy of the batch replayed at iteration iter.
func (r *replay) Batch(iter, size int) *data.Batch {
	b := r.slot(iter, size)
	c := &data.Batch{
		Dense:   b.Dense.Clone(),
		Sparse:  make([][]int, len(b.Sparse)),
		Offsets: append([]int(nil), b.Offsets...),
		Labels:  append([]float32(nil), b.Labels...),
	}
	for t, ids := range b.Sparse {
		c.Sparse[t] = append([]int(nil), ids...)
	}
	return c
}

// BatchIndices returns a fresh copy of table t's ids at iteration iter.
func (r *replay) BatchIndices(iter, size, t int) []int {
	return append([]int(nil), r.slot(iter, size).Sparse[t]...)
}
