package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	pooled "pooleddata"
)

// sync-exact: single-signal POST /v1/decode with exact counts and the
// server-picked decoder (MN), n=10⁴, m=800, k=16 — at m=800 MN
// recovers most signals (about 87% of these), at m=600 well under half.
// Arrivals are open-loop Poisson from two connections. The base rung
// (50 req/s) sees requests one at a time, so the per-job remote path,
// including the client's coalesce window, sets its latency; the ladder
// above it climbs past the knee, and the capacity phase keeps both
// connections busy.
const (
	syncN, syncM, syncK = 10000, 800, 16
	syncInputs          = 1024
	baseRate            = 50.0
	latencyLimitMS      = 100.0
	setupReps           = 3
	// baseShare of the window goes to the base rung: 625 arrivals in a
	// 25-second run, split across the boots.
	baseShare = 0.5
	// A rung whose last quarter ran this much later than its first
	// quarter has a growing backlog.
	maxLateGrowthMS = 10.0
	// capacityShare of the window goes to the capacity phase; the ladder
	// gets at most the rest.
	capacityShare = 0.3
)

// call is one sync decode request.
type call struct {
	input           int
	id              string
	due, sent, done time.Time
	status          int
	failed          bool
	recovered       bool
}

func (c *call) latency() time.Duration { return c.done.Sub(c.due) }

// rung is one offered rate of the ladder.
type rung struct {
	rate  float64
	calls []call
}

// p99 and errFrac decide whether a rung meets the latency limit.
func (r *rung) stats() (p99 float64, errFrac float64, lateGrowth float64) {
	var lat dist
	failed := 0
	for i := range r.calls {
		c := &r.calls[i]
		if c.failed {
			failed++
			lat.add(math.Inf(1))
			continue
		}
		lat.addDur(c.latency())
	}
	// Backlog check: lateness in the last quarter against the first.
	q := len(r.calls) / 4
	var first, last dist
	for i := 0; i < q; i++ {
		first.addDur(r.calls[i].sent.Sub(r.calls[i].due))
		last.addDur(r.calls[len(r.calls)-1-i].sent.Sub(r.calls[len(r.calls)-1-i].due))
	}
	return lat.q(0.99), float64(failed) / float64(len(r.calls)), last.q(0.5) - first.q(0.5)
}

func (r *rung) passes() bool {
	p99, ef, growth := r.stats()
	return p99 <= latencyLimitMS && ef <= 0.01 && growth <= maxLateGrowthMS
}

// syncRun is everything one measured window produced.
type syncRun struct {
	base   *rung
	ladder []*rung
	knee   float64
	// capacity is the closed-loop phase; its completion rate is the
	// fleet's throughput with two connections kept busy.
	capacity *rung
	win      window
}

func runSync(ctx context.Context, cfg config, rep *report) error {
	in, err := generate(ctx, cfg.seed, syncN, syncM, syncK, syncInputs, pooled.NoiseModel{})
	if err != nil {
		return err
	}
	if !cfg.traced {
		// Each boot runs a share of the window: latency and capacity differ
		// more between pooledd processes than within one, so pooling
		// several boots steadies the figures.
		var setups, rss []float64
		var parts []*syncRun
		for p := 0; p < setupReps; p++ {
			t0 := time.Now()
			f, sid, err := bootSync(ctx, cfg, in, rep, false)
			if err != nil {
				return err
			}
			setups = append(setups, time.Since(t0).Seconds())
			run, err := syncLoad(ctx, f, sid, in, cfg.seconds, part{p, setupReps}, rep, nil)
			rss = append(rss, f.peakRSS())
			f.stop()
			if err != nil {
				return err
			}
			parts = append(parts, run)
		}
		reportSyncE2E(rep, parts, setups, slices.Max(rss))
		return nil
	}

	// Traced run: the same window with tracing off, then on.
	half := cfg.seconds / 2
	f, sid, err := bootSync(ctx, cfg, in, rep, false)
	if err != nil {
		return err
	}
	plain, err := syncLoad(ctx, f, sid, in, half, part{0, 1}, rep, nil)
	f.stop()
	if err != nil {
		return err
	}
	f, sid, err = bootSync(ctx, cfg, in, rep, true)
	if err != nil {
		return err
	}
	j := newJoiner(ctx, f.base, 0)
	traced, err := syncLoad(ctx, f, sid, in, half, part{0, 1}, rep, j)
	trees := j.close()
	f.stop() // the probes run on an idle machine
	if err != nil {
		return err
	}
	return reportSyncLayers(ctx, rep, in, plain, traced, trees, j.skipped)
}

// bootSync starts a fleet, registers the scheme and sends one decode,
// which makes the worker install the scheme. All of it is set-up time.
func bootSync(ctx context.Context, cfg config, in *inputs, rep *report, traced bool) (*fleet, string, error) {
	f, err := startFleet(ctx, cfg, fleetOptions{traced: traced})
	if err != nil {
		return nil, "", err
	}
	sid, err := f.createScheme(ctx, in.n, in.m, in.schemeSeed)
	if err != nil {
		f.stop()
		return nil, "", err
	}
	c := call{input: 0, id: "warmup"}
	sendDecode(ctx, f, sid, in, rep, &c, syncBody(in, sid, 0))
	if c.failed {
		f.stop()
		return nil, "", fmt.Errorf("warm-up decode failed with status %d", c.status)
	}
	return f, sid, nil
}

func syncBody(in *inputs, sid string, i int) []byte {
	b, _ := json.Marshal(struct {
		Scheme string  `json:"scheme"`
		K      int     `json:"k"`
		Counts []int64 `json:"counts"`
	}{sid, in.k, in.counts[i]})
	return b
}

// sendDecode posts one decode and checks the result against the
// reference: the support and the decoder name must match exactly.
func sendDecode(ctx context.Context, f *fleet, sid string, in *inputs, rep *report, c *call, body []byte) {
	var out struct {
		Support []int  `json:"support"`
		Decoder string `json:"decoder"`
	}
	c.sent = time.Now()
	status, _, err := postJSON(ctx, f.hc, f.base+"/v1/decode", c.id, body, &out)
	c.done = time.Now()
	c.status = status
	if err != nil || status != 200 {
		c.failed = true
		return
	}
	if !slices.Equal(out.Support, in.ref[c.input]) || out.Decoder != in.refDecoder {
		rep.mismatch("sync input %d: got %v (%s), reference %v (%s)", c.input, out.Support, out.Decoder, in.ref[c.input], in.refDecoder)
	}
	c.recovered = in.recovered(c.input, out.Support)
}

// part is the share of a window one fleet boot runs: part i of n.
type part struct{ i, n int }

// syncLoad runs the part's share of the window: the base rung for
// baseShare of it, then the capacity phase (requests back to back on
// both connections) for capacityShare. The last part also climbs the
// ladder (rates ×1.5 from 150 req/s until a rung misses the limit) for
// at most the rest of the window.
func syncLoad(ctx context.Context, f *fleet, sid string, in *inputs, seconds float64, pt part, rep *report, j *joiner) (*syncRun, error) {
	bodies := make([][]byte, len(in.counts))
	for i := range bodies {
		bodies[i] = syncBody(in, sid, i)
	}
	r := rand.New(rand.NewPCG(in.schemeSeed, 0x5bd1e995+uint64(pt.i)))
	run := &syncRun{}
	next := pt.i * len(bodies) / pt.n
	var err error
	run.win.frontBefore, run.win.workerBefore, err = scrapeBoth(ctx, f)
	if err != nil {
		return nil, err
	}
	run.win.cpu = startCPU(f)
	runRung := func(rate float64, count int) *rung {
		g := &rung{rate: rate, calls: make([]call, count)}
		openLoop(ctx, f, sid, in, rep, g, bodies, r, &next, j)
		return g
	}
	run.base = runRung(baseRate, int(math.Round(baseRate*seconds*baseShare/float64(pt.n))))
	perRung := func(rate float64) int { return max(150, int(rate*seconds/25)) } // ~1s
	ladderEnd := time.Now().Add(time.Duration((1 - baseShare - capacityShare) * seconds * float64(time.Second)))
	lo, hi := baseRate, 0.0
	loP99, hiP99 := 0.0, 0.0
	loP99, _, _ = run.base.stats()
	// A rung that misses the limit runs once more before it counts as
	// failed: on a shared machine one stall can sink a rung's p99.
	try := func(rate float64) *rung {
		g := runRung(rate, perRung(rate))
		run.ladder = append(run.ladder, g)
		if !g.passes() {
			g = runRung(rate, perRung(rate))
			run.ladder = append(run.ladder, g)
		}
		return g
	}
	for rate := 150.0; pt.i == pt.n-1 && hi == 0 && time.Now().Before(ladderEnd) && ctx.Err() == nil; rate *= 1.5 {
		g := try(rate)
		if g.passes() {
			lo = rate
			loP99, _, _ = g.stats()
		} else {
			hi = rate
			hiP99, _, _ = g.stats()
		}
	}
	// No more calls can complete than 1000 per second.
	capStart := time.Now()
	until := capStart.Add(time.Duration(capacityShare * seconds / float64(pt.n) * float64(time.Second)))
	run.capacity = &rung{calls: make([]call, int(until.Sub(capStart).Seconds()*1000)+1)}
	for i := range run.capacity.calls {
		run.capacity.calls[i] = call{input: (next + i) % len(bodies), id: "sync-" + strconv.Itoa(next+i)}
	}
	sent := sendAll(ctx, f, sid, in, rep, run.capacity, bodies, j, until)
	run.capacity.calls = run.capacity.calls[:sent]
	next += sent
	run.win.cpu.stop()
	run.win.frontAfter, run.win.workerAfter, err = scrapeBoth(ctx, f)
	if err != nil {
		return nil, err
	}
	for _, g := range run.rungs() {
		for i := range g.calls {
			if !g.calls[i].failed {
				run.win.jobs++
			}
		}
	}
	run.knee = knee(lo, hi, loP99, hiP99)
	return run, ctx.Err()
}

// knee interpolates, on log scales, the rate at which p99 crosses the
// limit between the highest passing rate lo and the lowest failing rate
// hi. Without a failing rung the knee is censored at lo.
func knee(lo, hi, loP99, hiP99 float64) float64 {
	if hi == 0 || loP99 <= 0 {
		return lo
	}
	hiP99 = max(hiP99, latencyLimitMS*1.01) // a rung failed on errors or backlog
	frac := math.Log(latencyLimitMS/loP99) / math.Log(hiP99/loP99)
	return lo * math.Pow(hi/lo, min(max(frac, 0), 1))
}

// openLoop sends the rung's Poisson arrivals from two connections. Each
// request is timed from its due time, so time spent waiting for a free
// connection counts against it; send minus due is the generator's
// lateness.
func openLoop(ctx context.Context, f *fleet, sid string, in *inputs, rep *report, g *rung, bodies [][]byte, r *rand.Rand, next *int, j *joiner) {
	t := time.Now().Add(5 * time.Millisecond)
	for i := range g.calls {
		t = t.Add(time.Duration(r.ExpFloat64() / g.rate * float64(time.Second)))
		input := (*next + i) % len(bodies)
		g.calls[i] = call{input: input, due: t, id: "sync-" + strconv.Itoa(*next+i)}
	}
	*next += len(g.calls)
	sendAll(ctx, f, sid, in, rep, g, bodies, j, time.Time{})
}

// sendAll sends the rung's calls in order from two connections and
// returns how many it sent. With a zero until, each call waits for its
// due time; otherwise calls go back to back (due when a connection
// frees up) until that time.
func sendAll(ctx context.Context, f *fleet, sid string, in *inputs, rep *report, g *rung, bodies [][]byte, j *joiner, until time.Time) int {
	paced := until.IsZero()
	var claim atomic.Int64
	var mu sync.Mutex // guards rep against the two senders
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := newReport("", false)
			for ctx.Err() == nil {
				if !paced && time.Now().After(until) {
					break
				}
				i := int(claim.Add(1) - 1)
				if i >= len(g.calls) {
					break
				}
				c := &g.calls[i]
				if paced {
					time.Sleep(time.Until(c.due))
				} else {
					c.due = time.Now()
				}
				sendDecode(ctx, f, sid, in, local, c, bodies[c.input])
				if j != nil && !c.failed {
					j.add(c.id)
				}
			}
			mu.Lock()
			rep.mismatches += local.mismatches
			mu.Unlock()
		}()
	}
	wg.Wait()
	return min(int(claim.Load()), len(g.calls))
}

// reportSyncE2E pools the parts' base rungs and capacity phases; the
// ladder ran on the last part.
func reportSyncE2E(rep *report, parts []*syncRun, setups []float64, rss float64) {
	rec, n := 0, 0
	var lat dist
	for _, run := range parts {
		for _, g := range run.rungs() {
			for i := range g.calls {
				c := &g.calls[i]
				rep.attempted++
				if c.failed {
					rep.failed++
					continue
				}
				n++
				if c.recovered {
					rec++
				}
			}
		}
		lat = append(lat, run.baseLatency()...)
	}
	fmt.Fprint(os.Stderr, "sync-exact: base-rung p50 per boot (ms):")
	for _, run := range parts {
		fmt.Fprintf(os.Stderr, " %.3f", run.baseLatency().q(0.5))
	}
	fmt.Fprintln(os.Stderr)
	last := parts[len(parts)-1]
	tq := tailQ(len(lat))
	rep.set("setup_s", median(setups), len(setups), "median boot-to-ready: processes, worker health, ring membership, scheme build, worker install (first decode)")
	rep.set("peak_rss_mb", rss, len(parts), "summed VmHWM of frontend and worker, the highest of the boots")
	rep.set("recovery_frac", float64(rec)/float64(max(n, 1)), n, "decoded support equals the planted support")
	rep.set("throughput_per_s", throughput(parts...), n, "requests completed per second with both connections kept busy (median second)")
	rep.info("sync_max_rps", "1/s", last.knee, len(last.ladder), ladderNote(last))
	rep.set("latency_p50_ms", lat.q(0.5), len(lat), "sync_p50_ms at the 50 req/s base rung, from the due time")
	rep.info("latency_tail_ms", "ms", lat.q(tq), len(lat), "sync "+qName(tq)+"_ms at the base rung")
}

func (run *syncRun) rungs() []*rung {
	return append(append([]*rung{run.base}, run.ladder...), run.capacity)
}

// capacityBins counts the capacity phase's completions in each of its
// whole seconds.
func (run *syncRun) capacityBins() []float64 {
	c := run.capacity.calls
	if len(c) == 0 {
		return nil
	}
	t0 := c[0].sent
	var bins []float64
	for i := range c {
		if c[i].failed {
			continue
		}
		b := int(c[i].done.Sub(t0) / time.Second)
		for len(bins) <= b {
			bins = append(bins, 0)
		}
		bins[b]++
	}
	if len(bins) > 1 {
		bins = bins[:len(bins)-1] // the last second is partial
	}
	return bins
}

// throughput is the median completions per second over the whole
// seconds of the runs' capacity phases, so a second slowed by other
// tenants of a shared machine does not move it.
func throughput(runs ...*syncRun) float64 {
	var bins []float64
	for _, r := range runs {
		bins = append(bins, r.capacityBins()...)
	}
	return median(bins)
}

// baseLatency is the base rung's latency distribution from due times; a
// failed request counts as missing any limit.
func (run *syncRun) baseLatency() dist {
	var lat dist
	for i := range run.base.calls {
		c := &run.base.calls[i]
		if c.failed {
			lat.add(math.Inf(1))
			continue
		}
		lat.addDur(c.latency())
	}
	return lat
}

// reportSyncLayers reports the traced run: span self times of the base
// rung's requests (requests arrive one at a time there, so the spans
// show the unloaded blocking path), counter deltas over the whole
// traced window, probes, and the cost of tracing against the untraced
// half.
func reportSyncLayers(ctx context.Context, rep *report, in *inputs, plain, traced *syncRun, trees map[string]*traceTree, skipped int) error {
	for _, g := range traced.rungs() {
		for i := range g.calls {
			rep.attempted++
			if g.calls[i].failed {
				rep.failed++
			}
		}
	}
	l := layerDists{}
	var late dist
	var rows []pathRow
	for i := range traced.base.calls {
		c := &traced.base.calls[i]
		late.addDur(c.sent.Sub(c.due))
		t := trees[c.id]
		if c.failed || t == nil {
			continue
		}
		st := t.selfTimes()
		st["generator"] = c.sent.Sub(c.due)
		st["http"] = c.done.Sub(c.sent) - time.Duration(t.DurNS)
		for name, d := range st {
			l.add(name, d)
		}
		rows = append(rows, pathRow{client: c.latency(), stages: st})
	}
	setPair(rep, "pooledd.http_self_ms", l.get("http"), "client request time minus the decode_request root span")
	reportSpans(rep, l)
	reportPath(rep, rows, []string{"generator", "http", "decode_request", "ingress", "shard_queue", "wire", "serialize", "network", "worker_queue", "worker_decode"})
	rep.set("gen.late_p99_ms", late.q(0.99), len(late), "send time minus due time at the base rung")
	rep.set("trace.joined", float64(len(trees)), len(trees), fmt.Sprintf("traces fetched from /v1/traces/{id}; %d ids skipped", skipped))
	reportCounters(rep, &traced.win)

	pl, tl := plain.baseLatency().q(0.5), traced.baseLatency().q(0.5)
	rep.set("trace.overhead_frac.latency_p50_ms", tl/pl-1, len(plain.base.calls), fmt.Sprintf("base-rung p50 traced %.3fms vs untraced %.3fms", tl, pl))
	rep.set("trace.overhead_frac.throughput_per_s", throughput(plain)/throughput(traced)-1, len(plain.capacity.calls), fmt.Sprintf("capacity traced %.1f/s vs untraced %.1f/s", throughput(traced), throughput(plain)))

	rep.set("engine.decode_batch_ms_per_signal", ms(in.refTime)/float64(len(in.counts)), len(in.counts), "Engine.DecodeBatchNoisy over the workload inputs (the reference decode)")
	if err := probeLayers(rep, in); err != nil {
		return err
	}
	return probeLoneRTT(ctx, rep, in)
}

func ladderNote(run *syncRun) string {
	s := fmt.Sprintf("highest rate with p99 <= %.0fms, no errors and no growing backlog, interpolated on p99; rungs", latencyLimitMS)
	for _, g := range run.ladder {
		p99, ef, growth := g.stats()
		s += fmt.Sprintf(" %.0f/s:p99=%.1fms,err=%.3f,late+%.1fms", g.rate, p99, ef, growth)
	}
	return s
}
