package decoder

import (
	"testing"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/pooling"
	"pooleddata/internal/query"
	"pooleddata/internal/rng"
)

// BenchmarkRefinedDecode decodes one batch of gaussian results with
// Refined at the shape of a noisy campaign (n = 10^4, m = 800, k = 16,
// σ = 0.5, 128 signals): MN, then the swap search. One op is the whole
// batch, decoded one signal after another.
func BenchmarkRefinedDecode(b *testing.B) {
	const (
		n     = 10000
		m     = 800
		k     = 16
		batch = 128
	)
	g, err := pooling.RandomRegular{}.Build(n, m, pooling.BuildOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.NewRandSeeded(99)
	ys := make([][]int64, batch)
	for s := range ys {
		sigma := bitvec.Random(n, k, r)
		ys[s] = query.Execute(g, sigma, query.Options{Oracle: query.Noisy{Sigma: 0.5}, Seed: uint64(s + 1)}).Y
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, y := range ys {
			if _, err := (Refined{}).Decode(g, y, k); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N*batch), "ms/signal")
}
