package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	pooled "pooleddata"
)

// inputs are one workload's generated signals, their measured counts,
// and the in-process reference decode of those counts. They are made
// before any timing starts; the servers only ever see counts.
type inputs struct {
	n, m, k    int
	schemeSeed uint64
	noise      pooled.NoiseModel
	planted    [][]int   // sorted true supports
	signals    [][]bool  // the same supports as indicator vectors
	counts     [][]int64 // measured under noise
	ref        [][]int   // reference decoded supports
	refDecoder string    // decoder the server-side policy picks
	refTime    time.Duration
}

// generate draws count planted weight-k signals from the seed, measures
// them on the (n, m, schemeSeed) random-regular design in process, and
// decodes them with the engine's noise policy — the same decoder pooledd
// picks for a request that names none.
func generate(ctx context.Context, seed uint64, n, m, k, count int, nm pooled.NoiseModel) (*inputs, error) {
	in := &inputs{n: n, m: m, k: k, schemeSeed: seed, noise: nm}
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	for b := 0; b < count; b++ {
		sup := plant(r, n, k)
		in.planted = append(in.planted, sup)
		in.signals = append(in.signals, indicator(n, sup))
	}
	eng := pooled.NewEngine(pooled.EngineOptions{})
	defer eng.Close()
	s, err := eng.Scheme(n, m, pooled.Options{Seed: in.schemeSeed})
	if err != nil {
		return nil, err
	}
	in.counts, err = eng.MeasureBatchNoisy(s, in.signals, nm)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := eng.DecodeBatchNoisy(ctx, s, in.counts, k, nm)
	in.refTime = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("reference decode: %w", err)
	}
	for _, r := range res {
		in.ref = append(in.ref, r.Support)
		in.refDecoder = r.Decoder
	}
	return in, nil
}

// plant draws k distinct coordinates of [0, n), sorted.
func plant(r *rand.Rand, n, k int) []int {
	seen := make(map[int]bool, k)
	sup := make([]int, 0, k)
	for len(sup) < k {
		i := r.IntN(n)
		if !seen[i] {
			seen[i] = true
			sup = append(sup, i)
		}
	}
	slices.Sort(sup)
	return sup
}

func indicator(n int, sup []int) []bool {
	v := make([]bool, n)
	for _, i := range sup {
		v[i] = true
	}
	return v
}

// recovered reports whether the planted support was decoded exactly.
func (in *inputs) recovered(i int, got []int) bool { return slices.Equal(in.planted[i], got) }
