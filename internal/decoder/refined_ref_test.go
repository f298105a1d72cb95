package decoder

import (
	"testing"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/graph"
	"pooleddata/internal/mn"
	"pooleddata/internal/parsort"
	"pooleddata/internal/pooling"
	"pooleddata/internal/rng"
)

// referenceDecode is Refined.Decode as it was before the swap search
// cached its insertion deltas: every (out, in) pair re-walks all of
// in's queries. It is kept verbatim as the reference the cached search
// must match support for support.
func (d Refined) referenceDecode(g *graph.Bipartite, y []int64, k int) (*bitvec.Vector, error) {
	if err := validate(g, y, k); err != nil {
		return nil, err
	}
	res := mn.Reconstruct(g, y, k, mn.Options{KeepScores: true})
	est := res.Estimate
	if k == 0 || k == g.N() {
		return est, nil
	}
	pool := d.CandidatePool
	if pool <= 0 {
		pool = 4 * k
		if pool < 32 {
			pool = 32
		}
	}
	passes := d.MaxPasses
	if passes <= 0 {
		passes = 8
	}

	// Per-query predicted responses for the current estimate, accumulated
	// from the k selected entries' edges (k·deg work; building the full
	// query-side matrix as Predict does would cost a whole Γm pass per
	// decode, dominating the refinement itself on large designs).
	pred := make([]int64, g.M())
	est.ForEachSet(func(i int) {
		qs, mu := g.EntryQueries(i)
		for p, j := range qs {
			pred[j] += int64(mu[p])
		}
	})
	misfit := int64(0)
	for j := range y {
		misfit += abs64(y[j] - pred[j])
	}
	if misfit == 0 {
		return est, nil
	}

	// Candidate insertions: best-scoring zeros. Candidate removals: all
	// current ones (k of them). At most k of the top k+pool scores are
	// selected entries, so that prefix always yields pool candidates —
	// no need to rank all n scores.
	top := k + pool
	if top > g.N() {
		top = g.N()
	}
	order := parsort.TopKDesc(res.Scores, top)
	candIn := make([]int, 0, pool)
	for _, i := range order {
		if !est.Get(int(i)) {
			candIn = append(candIn, int(i))
			if len(candIn) == pool {
				break
			}
		}
	}

	// outAdj[j] is the multiplicity of the current removal candidate in
	// query j and outMask its packed membership over queries, both filled
	// (and cleared) once per candidate so each swapDelta is O(deg(in))
	// instead of O(deg(out) + deg(in)): the removal half of the delta is
	// identical for every insertion candidate and hoisted out of the
	// candidate loop, and the insertion half tests "does out touch query
	// j" with one word-indexed bit instead of a dense int64 load.
	outAdj := make([]int64, g.M())
	outMask := bitvec.New(g.M())
	for pass := 0; pass < passes && misfit > 0; pass++ {
		improved := false
		ones := est.Support()
		for _, out := range ones {
			qsOut, muOut := g.EntryQueries(out)
			var removeDelta int64
			for p, j := range qsOut {
				outAdj[j] = int64(muOut[p])
				outMask.Set(int(j))
				before := abs64(y[j] - pred[j])
				after := abs64(y[j] - (pred[j] - int64(muOut[p])))
				removeDelta += after - before
			}
			for ci, in := range candIn {
				if in < 0 || est.Get(in) {
					continue
				}
				delta := removeDelta + referenceInsertDelta(g, y, pred, outAdj, outMask.Words(), in)
				if delta < 0 {
					// Commit the swap.
					qsIn, muIn := g.EntryQueries(in)
					for p, j := range qsOut {
						pred[j] -= int64(muOut[p])
					}
					for p, j := range qsIn {
						pred[j] += int64(muIn[p])
					}
					est.Clear(out)
					est.Set(in)
					candIn[ci] = out // the removed entry becomes a candidate
					misfit += delta
					improved = true
					break
				}
			}
			for _, j := range qsOut {
				outAdj[j] = 0
				outMask.Clear(int(j))
			}
			if misfit == 0 {
				break
			}
		}
		if !improved {
			break
		}
	}
	return est, nil
}

// referenceInsertDelta returns the change in L1 misfit contributed by adding
// entry in, on top of an already-applied removal described by outAdj
// (the removed entry's dense per-query multiplicity) and outWords (its
// packed query membership). The word-indexed bit test keeps the common
// disjoint-neighborhood case to one load per query, reading outAdj only
// where the two neighborhoods actually intersect.
func referenceInsertDelta(g *graph.Bipartite, y, pred, outAdj []int64, outWords []uint64, in int) int64 {
	var delta int64
	qsIn, muIn := g.EntryQueries(in)
	for p, j := range qsIn {
		// If j is also touched by out, account on top of the removal.
		var adj int64
		if outWords[j>>6]&(1<<(uint(j)&63)) != 0 {
			adj = outAdj[j]
		}
		before := abs64(y[j] - (pred[j] - adj))
		after := abs64(y[j] - (pred[j] - adj + int64(muIn[p])))
		delta += after - before
	}
	return delta
}

// TestRefinedMatchesReference pins the cached swap search to the
// reference search support for support: on designs with frequent
// multi-edges, on gaussian, threshold and arbitrary results, at k=1, with
// a candidate pool larger than n−k, and with one or two passes.
func TestRefinedMatchesReference(t *testing.T) {
	type design struct {
		name string
		n, m int
		g    func(n, m int, seed uint64) (*graph.Bipartite, error)
	}
	designs := []design{
		// Γ = 3n draws per query: almost every edge is a multi-edge.
		{"dense-multi", 40, 24, func(n, m int, seed uint64) (*graph.Bipartite, error) {
			return pooling.RandomRegular{Gamma: 3 * n}.Build(n, m, pooling.BuildOptions{Seed: seed})
		}},
		{"paper", 300, 60, func(n, m int, seed uint64) (*graph.Bipartite, error) {
			return pooling.RandomRegular{}.Build(n, m, pooling.BuildOptions{Seed: seed})
		}},
		{"random-mult", 60, 30, randomMultigraph},
	}
	type results struct {
		name string
		y    func(exact []int64, r *rng.Rand) []int64
	}
	gaussian := func(sigma float64) func([]int64, *rng.Rand) []int64 {
		return func(exact []int64, r *rng.Rand) []int64 {
			y := make([]int64, len(exact))
			for j, v := range exact {
				y[j] = max(v+int64(sigma*r.NormFloat64()+0.5), 0)
			}
			return y
		}
	}
	ys := []results{
		{"gaussian-0.5", gaussian(0.5)},
		{"gaussian-2", gaussian(2)},
		{"threshold", func(exact []int64, r *rng.Rand) []int64 {
			y := make([]int64, len(exact))
			for j, v := range exact {
				if v >= 2 {
					y[j] = 1
				}
			}
			return y
		}},
		{"arbitrary", func(exact []int64, r *rng.Rand) []int64 {
			y := make([]int64, len(exact))
			for j := range y {
				y[j] = int64(r.Intn(40)) - 8
			}
			return y
		}},
	}
	cases, moved := 0, 0
	for _, ds := range designs {
		for seed := uint64(1); seed <= 6; seed++ {
			g, err := ds.g(ds.n, ds.m, seed)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.NewRandSeeded(seed ^ 0x5eed)
			for _, k := range []int{1, 3, ds.n / 8} {
				sigma := bitvec.Random(ds.n, k, r)
				exact := Predict(g, sigma)
				for _, rs := range ys {
					y := rs.y(exact, r)
					for _, d := range []Refined{
						{},
						{MaxPasses: 1},
						{MaxPasses: 2},
						{CandidatePool: ds.n}, // more than the n−k non-selected entries
						{CandidatePool: 2},
					} {
						want, err := d.referenceDecode(g, y, k)
						if err != nil {
							t.Fatal(err)
						}
						got, err := d.Decode(g, y, k)
						if err != nil {
							t.Fatal(err)
						}
						if !got.Equal(want) {
							t.Fatalf("%s seed %d k=%d %s %+v: support %v, reference %v",
								ds.name, seed, k, rs.name, d, got.Support(), want.Support())
						}
						cases++
						if !want.Equal(mn.Reconstruct(g, y, k, mn.Options{}).Estimate) {
							moved++
						}
					}
				}
			}
		}
	}
	// The comparison only means something if the reference swapped.
	if moved < cases/10 {
		t.Fatalf("refinement changed MN's estimate in %d of %d cases; the instances exercise too few swaps", moved, cases)
	}
	t.Logf("%d cases, %d where refinement moved MN's estimate", cases, moved)
}

// randomMultigraph is a design with explicit multiplicities 1..4: each
// query holds a random third of the entries.
func randomMultigraph(n, m int, seed uint64) (*graph.Bipartite, error) {
	r := rng.NewRandSeeded(seed)
	qptr := []int64{0}
	var qent, qmul []int32
	for j := 0; j < m; j++ {
		for i := 0; i < n; i++ {
			if r.Intn(3) == 0 {
				qent = append(qent, int32(i))
				qmul = append(qmul, int32(1+r.Intn(4)))
			}
		}
		qptr = append(qptr, int64(len(qent)))
	}
	return graph.New(n, qptr, qent, qmul)
}
