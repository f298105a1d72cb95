// Package decoder implements the reconstruction algorithms the paper
// compares against, behind a single Decoder interface:
//
//   - MN: the paper's Maximum Neighborhood algorithm (wrapping internal/mn).
//   - Exhaustive: the information-theoretic decoder — enumerate all
//     weight-k signals consistent with (G, y). This is the decoder implicit
//     in Theorem 2 ("we can always reconstruct σ ... via an exhaustive
//     search"); it also counts Z_k(G,y), the number of consistent signals,
//     which the information-theoretic experiments measure directly.
//   - Greedy: an OMP-style peeling decoder (pick the entry best correlated
//     with the residual, subtract, repeat) standing in for the matching-
//     pursuit family of §I.B.
//   - BP: a Gaussian-approximation belief propagation decoder standing in
//     for the AMP/graph-code family (Alaoui et al., Karimi et al.).
//   - Refined: MN followed by local swap refinement against the residual.
//
// All decoders see only (G, y, k) — never the ground truth.
package decoder

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/graph"
	"pooleddata/internal/mn"
	"pooleddata/internal/parsort"
	"pooleddata/internal/sparse"
)

// Decoder reconstructs a weight-k signal from a design and its results.
type Decoder interface {
	// Name identifies the decoder in experiment output.
	Name() string
	// Decode returns an estimate of the hidden signal. Implementations
	// must not modify y.
	Decode(g *graph.Bipartite, y []int64, k int) (*bitvec.Vector, error)
}

func validate(g *graph.Bipartite, y []int64, k int) error {
	if len(y) != g.M() {
		return fmt.Errorf("decoder: %d results for %d queries", len(y), g.M())
	}
	if k < 0 || k > g.N() {
		return fmt.Errorf("decoder: weight k=%d out of [0,%d]", k, g.N())
	}
	return nil
}

// Predict returns the response vector the additive oracle would produce
// for the candidate signal est on design g.
func Predict(g *graph.Bipartite, est *bitvec.Vector) []int64 {
	x := make([]int64, g.N())
	est.ForEachSet(func(i int) { x[i] = 1 })
	return sparse.QueryMultiplicity(g).MulVec(x, nil)
}

// Residual returns the L1 misfit Σ_j |y_j − ŷ_j| of a candidate signal.
// A candidate is consistent with the observations iff this is zero.
func Residual(g *graph.Bipartite, est *bitvec.Vector, y []int64) int64 {
	pred := Predict(g, est)
	var s int64
	for j := range y {
		d := y[j] - pred[j]
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s
}

// Consistent reports whether est reproduces every query result exactly.
func Consistent(g *graph.Bipartite, est *bitvec.Vector, y []int64) bool {
	return Residual(g, est, y) == 0
}

// MN adapts the core algorithm to the Decoder interface.
type MN struct {
	// Workers bounds the SpMV pool; 0 means GOMAXPROCS.
	Workers int
}

// Name implements Decoder.
func (MN) Name() string { return "mn" }

// Decode implements Decoder.
func (d MN) Decode(g *graph.Bipartite, y []int64, k int) (*bitvec.Vector, error) {
	if err := validate(g, y, k); err != nil {
		return nil, err
	}
	return mn.Reconstruct(g, y, k, mn.Options{Workers: d.Workers}).Estimate, nil
}

// ErrSearchSpaceTooLarge is returned by Exhaustive when C(n,k) exceeds the
// configured budget.
var ErrSearchSpaceTooLarge = errors.New("decoder: exhaustive search space exceeds budget")

// ErrInconsistent is returned when no weight-k signal reproduces y (only
// possible with noisy observations).
var ErrInconsistent = errors.New("decoder: no weight-k signal is consistent with the results")

// Exhaustive is the unbounded-computation decoder of Theorem 2. It
// enumerates weight-k signals in lexicographic order with branch-and-bound
// pruning on the query residuals and returns the first consistent one.
type Exhaustive struct {
	// MaxNodes bounds the number of search tree nodes visited; 0 means
	// 50 million. The decoder fails with ErrSearchSpaceTooLarge beyond it.
	MaxNodes int64
}

// Name implements Decoder.
func (Exhaustive) Name() string { return "exhaustive" }

// Decode implements Decoder.
func (d Exhaustive) Decode(g *graph.Bipartite, y []int64, k int) (*bitvec.Vector, error) {
	first, _, err := d.search(g, y, k, 1)
	if err != nil {
		return nil, err
	}
	if first == nil {
		return nil, ErrInconsistent
	}
	return first, nil
}

// CountConsistent returns Z_k(G,y) — the number of weight-k signals
// consistent with the results — up to limit (0 means unlimited except by
// MaxNodes). The first consistent signal found is returned alongside.
// Counting Z_k is how the information-theoretic experiments decide whether
// the instance is uniquely decodable.
func (d Exhaustive) CountConsistent(g *graph.Bipartite, y []int64, k int, limit int64) (*bitvec.Vector, int64, error) {
	return d.search(g, y, k, limit)
}

func (d Exhaustive) search(g *graph.Bipartite, y []int64, k int, limit int64) (*bitvec.Vector, int64, error) {
	if err := validate(g, y, k); err != nil {
		return nil, 0, err
	}
	n, m := g.N(), g.M()
	budget := d.MaxNodes
	if budget <= 0 {
		budget = 50_000_000
	}
	residual := make([]int64, m)
	copy(residual, y)
	// remCap[i][j] would be the max the suffix can still add; instead use
	// cheap pruning: a branch dies when any residual goes negative, or
	// when fewer than (needed) entries remain.
	chosen := make([]int, 0, k)
	var first *bitvec.Vector
	var count int64
	var nodes int64

	var rec func(start, left int) error
	rec = func(start, left int) error {
		nodes++
		if nodes > budget {
			return ErrSearchSpaceTooLarge
		}
		if left == 0 {
			for j := 0; j < m; j++ {
				if residual[j] != 0 {
					return nil
				}
			}
			count++
			if first == nil {
				first = bitvec.FromIndices(n, chosen)
			}
			return nil
		}
		for i := start; i <= n-left; i++ {
			qs, mu := g.EntryQueries(i)
			ok := true
			for p, j := range qs {
				residual[j] -= int64(mu[p])
				if residual[j] < 0 {
					ok = false
				}
			}
			if ok {
				chosen = append(chosen, i)
				if err := rec(i+1, left-1); err != nil {
					return err
				}
				chosen = chosen[:len(chosen)-1]
				if limit > 0 && count >= limit {
					// Undo and abort: caller only needs "at least limit".
					for p, j := range qs {
						residual[j] += int64(mu[p])
					}
					return nil
				}
			}
			for p, j := range qs {
				residual[j] += int64(mu[p])
			}
		}
		return nil
	}
	if err := rec(0, k); err != nil {
		return nil, count, err
	}
	return first, count, nil
}

// Greedy is the OMP-style peeling decoder: k rounds, each selecting the
// entry whose distinct-neighborhood residual sum is largest (centralized
// by degree, mirroring the MN score), then subtracting the entry's exact
// contribution from the residual.
type Greedy struct{}

// Name implements Decoder.
func (Greedy) Name() string { return "greedy-omp" }

// Decode implements Decoder.
func (Greedy) Decode(g *graph.Bipartite, y []int64, k int) (*bitvec.Vector, error) {
	if err := validate(g, y, k); err != nil {
		return nil, err
	}
	n := g.N()
	residual := make([]int64, len(y))
	copy(residual, y)
	est := bitvec.New(n)
	// remaining[i] tracks how many picks are still pending; simple linear
	// scans keep this O(k·(n + E/m·deg)) which is fine at experiment scale.
	for round := 0; round < k; round++ {
		bestIdx := -1
		bestScore := math.Inf(-1)
		for i := 0; i < n; i++ {
			if est.Get(i) {
				continue
			}
			qs, _ := g.EntryQueries(i)
			var s int64
			for _, j := range qs {
				s += residual[j]
			}
			// Centralize by the residual weight left in the neighborhood:
			// score = Ψ_i^res − Δ*_i·(k−round)/2.
			score := float64(s) - float64(len(qs))*float64(k-round)/2
			if score > bestScore || (score == bestScore && bestIdx >= 0 && i < bestIdx) {
				bestScore = score
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			break
		}
		est.Set(bestIdx)
		qs, mu := g.EntryQueries(bestIdx)
		for p, j := range qs {
			residual[j] -= int64(mu[p])
		}
	}
	return est, nil
}

// Refined runs MN and then hill-climbs with single swaps (drop a selected
// entry, add an unselected one) as long as the L1 residual strictly
// decreases. Swap candidates are limited to the highest-scoring
// non-selected entries to keep each pass near-linear.
type Refined struct {
	// MaxPasses bounds the number of full swap sweeps; 0 means 8.
	MaxPasses int
	// CandidatePool is the number of top non-selected entries considered
	// for insertion; 0 means 4k (at least 32).
	CandidatePool int
}

// Name implements Decoder.
func (Refined) Name() string { return "mn-refined" }

// Decode implements Decoder.
func (d Refined) Decode(g *graph.Bipartite, y []int64, k int) (*bitvec.Vector, error) {
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

	sc := refinePool.Get().(*refineScratch)
	defer refinePool.Put(sc)

	// Per-query predicted responses for the current estimate, accumulated
	// from the k selected entries' edges (k·deg work; building the full
	// query-side matrix as Predict does would cost a whole Γm pass per
	// decode, dominating the refinement itself on large designs).
	sc.pred = zeroed(sc.pred, g.M())
	pred := sc.pred
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
	// no need to rank all n scores. No candidate is ever selected: a
	// committed swap puts the removed entry in the inserted one's slot.
	top := k + pool
	if top > g.N() {
		top = g.N()
	}
	order := parsort.TopKDesc(res.Scores, top)
	candIn := sc.candIn[:0]
	for _, i := range order {
		if !est.Get(int(i)) {
			candIn = append(candIn, int(i))
			if len(candIn) == pool {
				break
			}
		}
	}
	sc.candIn = candIn

	// Swap (out, in) changes the misfit by removeDelta(out) plus the
	// insertion delta of in on the residual r = y − pred with out already
	// removed. With f(x) = |x−μ| − |x| for in's multiplicity μ, that is
	// Σ_{j∈N(in)} f(r_j + a_j), where a_j is out's multiplicity (0 off
	// N(out)). The index caches ins[ci] = Σ f(r_j) per candidate, so the
	// pair's delta is removeDelta + ins[ci] + corr[ci], where corr sums
	// f(r_j + a_j) − f(r_j) over N(out). f is constant for x ≤ 0 and for
	// x ≥ μ, so only queries with −a_j < r_j < μ contribute; they are
	// walked through the query→candidate index. Integer arithmetic keeps
	// every delta, and so every decision, exact.
	sc.index(g, y, pred, candIn)
	sc.corr = zeroed(sc.corr, len(candIn))
	corr := sc.corr
	for pass := 0; pass < passes && misfit > 0; pass++ {
		improved := false
		ones := est.Support()
		for _, out := range ones {
			qsOut, muOut := g.EntryQueries(out)
			clear(corr)
			var removeDelta int64
			for p, j := range qsOut {
				a := int64(muOut[p])
				r := y[j] - pred[j]
				removeDelta += abs64(r+a) - abs64(r)
				if r+a <= 0 {
					continue
				}
				for q := sc.qptr[j]; q < sc.qptr[j+1]; q++ {
					if mu := int64(sc.qmu[q]); r < mu {
						corr[sc.qci[q]] += abs64(r+a-mu) - abs64(r+a) - abs64(r-mu) + abs64(r)
					}
				}
			}
			for ci, in := range candIn {
				delta := removeDelta + sc.ins[ci] + corr[ci]
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
					// The swap moves pred on most queries, so every
					// cached delta is stale: rebuild rather than patch.
					sc.index(g, y, pred, candIn)
					break
				}
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

// refineScratch is the working set of one Refined.Decode, leased from
// refinePool so a warm decoder allocates none of it.
type refineScratch struct {
	pred   []int64 // predicted response per query for the current estimate
	candIn []int   // insertion candidates, in scan order
	ins    []int64 // ins[ci]: candIn[ci]'s insertion delta on the current residual
	corr   []int64 // corr[ci]: ins[ci]'s correction for the removal under test
	// Query→candidate index: the candidates touching query j are
	// qci[qptr[j]:qptr[j+1]] (positions in candIn), with multiplicities qmu.
	qptr []int
	qci  []int32
	qmu  []int32
}

var refinePool = sync.Pool{New: func() any { return new(refineScratch) }}

// index recomputes ins and the query→candidate index for the residual
// y − pred and the candidates candIn.
func (sc *refineScratch) index(g *graph.Bipartite, y, pred []int64, candIn []int) {
	m := g.M()
	sc.ins = zeroed(sc.ins, len(candIn))
	sc.qptr = zeroed(sc.qptr, m+1)
	qptr := sc.qptr
	for ci, in := range candIn {
		qs, mu := g.EntryQueries(in)
		var d int64
		for p, j := range qs {
			r := y[j] - pred[j]
			d += abs64(r-int64(mu[p])) - abs64(r)
			qptr[j+1]++
		}
		sc.ins[ci] = d
	}
	for j := 0; j < m; j++ {
		qptr[j+1] += qptr[j]
	}
	sc.qci = zeroed(sc.qci, qptr[m])
	sc.qmu = zeroed(sc.qmu, qptr[m])
	// Fill with qptr[j] as query j's write cursor; each cursor ends on
	// the next query's start, so shifting by one restores the offsets.
	for ci, in := range candIn {
		qs, mu := g.EntryQueries(in)
		for p, j := range qs {
			at := qptr[j]
			sc.qci[at] = int32(ci)
			sc.qmu[at] = mu[p]
			qptr[j] = at + 1
		}
	}
	copy(qptr[1:], qptr[:m])
	qptr[0] = 0
}

// zeroed returns s resized to n zero elements, reusing its backing
// array when it is large enough.
func zeroed[T int | int32 | int64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
