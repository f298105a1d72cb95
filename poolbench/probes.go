package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"slices"
	"time"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/decoder"
	"pooleddata/internal/engine"
	"pooleddata/internal/graph"
	"pooleddata/internal/noise"
	"pooleddata/internal/pooling"
	"pooleddata/internal/query"
	"pooleddata/internal/remote"
)

// Probes time calls into single modules on the workload's own inputs,
// from this file, with no instrumentation inside the program. They run
// after the load, on an idle machine.

const probeSignals = 64

// quiet drops the probe servers' per-request logs.
var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// probeLayers times pooling.RandomRegular.Build, query.ExecuteBatch,
// decoder.MN.Decode and, for noisy inputs, decoder.Refined.Decode. The
// graph it builds must decode like the reference, which checks that
// pooledd, the library and the modules agree on the design.
func probeLayers(rep *report, in *inputs) error {
	var builds dist
	var g *graph.Bipartite
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		var err error
		g, err = pooling.RandomRegular{}.Build(in.n, in.m, pooling.BuildOptions{Seed: in.schemeSeed})
		if err != nil {
			return err
		}
		builds.add(time.Since(t0).Seconds())
	}
	rep.set("pooling.build_s", builds.q(0.5), len(builds), fmt.Sprintf("RandomRegular.Build n=%d m=%d, median of 3", in.n, in.m))

	nsig := min(probeSignals, len(in.planted))
	sigmas := make([]*bitvec.Vector, nsig)
	for i := range sigmas {
		sigmas[i] = bitvec.FromIndices(in.n, in.planted[i])
	}
	t0 := time.Now()
	ys := query.ExecuteBatch(g, sigmas, 0)
	rep.set("query.execute_batch_us_per_signal", float64(time.Since(t0).Microseconds())/float64(nsig), nsig, "query.ExecuteBatch, one batch")
	if in.noise.Kind == "" {
		for i, y := range ys {
			if !slices.Equal(y, in.counts[i]) {
				rep.mismatch("query.ExecuteBatch counts of signal %d differ from the library's", i)
			}
		}
	}

	var d dist
	for i := 0; i < nsig; i++ {
		t0 := time.Now()
		est, err := decoder.MN{}.Decode(g, in.counts[i], in.k)
		d.addDur(time.Since(t0))
		if err != nil {
			return err
		}
		if in.refDecoder == "mn" && !slices.Equal(est.Support(), in.ref[i]) {
			rep.mismatch("decoder.MN on signal %d: got %v, reference %v", i, est.Support(), in.ref[i])
		}
	}
	rep.set("mn.decode_ms", d.q(0.5), len(d), "decoder.MN.Decode per signal, median")

	if in.refDecoder == (decoder.Refined{}).Name() {
		var r dist
		for i := 0; i < nsig; i++ {
			t0 := time.Now()
			est, err := decoder.Refined{}.Decode(g, in.counts[i], in.k)
			r.addDur(time.Since(t0))
			if err != nil {
				return err
			}
			if !slices.Equal(est.Support(), in.ref[i]) {
				rep.mismatch("decoder.Refined on signal %d: got %v, reference %v", i, est.Support(), in.ref[i])
			}
		}
		rep.set("decoder.refined_ms", r.q(0.5), len(r), "decoder.Refined.Decode per signal on the gaussian inputs, median")
	}
	return nil
}

// probeLoneRTT times remote.Shard.Submit + Wait for one job at a time
// against an in-process remote.NewServer on a loopback listener, with
// nothing else running: the per-job wire path a lone sync decode pays.
func probeLoneRTT(ctx context.Context, rep *report, in *inputs) error {
	cl := engine.NewCluster(engine.ClusterConfig{Shards: 1})
	defer cl.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: remote.NewServer(cl, remote.ServerOptions{Logger: quiet}).Handler()}
	go func() { _ = hs.Serve(ln) }() // returns ErrServerClosed on Close
	defer hs.Close()
	sh := remote.New(remote.Options{Addr: ln.Addr().String(), Logger: quiet})
	defer sh.Close()
	es, err := sh.Scheme(pooling.RandomRegular{}, in.n, in.m, in.schemeSeed)
	if err != nil {
		return err
	}
	nm := noise.Model{Kind: noise.Kind(in.noise.Kind), Sigma: in.noise.Sigma, Seed: in.noise.Seed}
	var d dist
	for i := -1; i < probeSignals; i++ { // i = -1 installs the scheme
		idx := max(i, 0)
		t0 := time.Now()
		fut, err := sh.Submit(ctx, engine.Job{Scheme: es, Y: in.counts[idx], K: in.k, Noise: nm})
		if err != nil {
			return err
		}
		res, err := fut.Wait(ctx)
		if err != nil {
			return err
		}
		if i >= 0 {
			d.addDur(time.Since(t0))
		}
		if !slices.Equal(res.Support, in.ref[idx]) {
			rep.mismatch("remote probe signal %d: got %v, reference %v", idx, res.Support, in.ref[idx])
		}
		time.Sleep(2 * time.Millisecond) // let the client go idle again
	}
	rep.set("remote.lone_rtt_ms", d.q(0.5), len(d), "remote.Shard.Submit+Wait, one job at a time on loopback, median")
	return nil
}

// window is what an HTTP workload's measured window leaves for the
// counter-derived layer metrics.
type window struct {
	cpu                       cpuWindow
	frontBefore, frontAfter   promSample
	workerBefore, workerAfter promSample
	jobs                      int // jobs settled in the window
}

func scrapeBoth(ctx context.Context, f *fleet) (promSample, promSample, error) {
	a, err := scrape(ctx, f.hc, f.base)
	if err != nil {
		return nil, nil, err
	}
	b, err := scrape(ctx, f.hc, "http://"+f.workAddr)
	return a, b, err
}

// cpuWindow measures CPU time of both servers and of this process over
// a window.
type cpuWindow struct {
	f                     *fleet
	t0                    time.Time
	front0, work0, self0  time.Duration
	wall                  time.Duration
	front, worker, selfCP time.Duration
}

func startCPU(f *fleet) cpuWindow {
	return cpuWindow{f: f, t0: time.Now(), front0: procCPU(f.front.Process.Pid),
		work0: procCPU(f.worker.Process.Pid), self0: selfCPU()}
}

func (c *cpuWindow) stop() {
	c.wall = time.Since(c.t0)
	c.front = procCPU(c.f.front.Process.Pid) - c.front0
	c.worker = procCPU(c.f.worker.Process.Pid) - c.work0
	c.selfCP = selfCPU() - c.self0
}

// reportCounters fills the layer metrics that come from /metrics and
// /proc deltas across the window; each ratio carries its base count.
func reportCounters(rep *report, w *window) {
	fb, fa := w.frontBefore, w.frontAfter
	jobs := max(w.jobs, 1)
	rep.set("jobs", float64(w.jobs), w.jobs, "jobs settled in the traced window (base of the per-job ratios)")
	rep.set("pooledd.frontend_cpu_ms_per_job", ms(w.cpu.front)/float64(jobs), w.jobs, "/proc utime+stime delta of the frontend")
	rep.set("pooledd.worker_cpu_ms_per_job", ms(w.cpu.worker)/float64(jobs), w.jobs, "/proc utime+stime delta of the worker")
	rep.set("gen.cpu_frac", w.cpu.selfCP.Seconds()/w.cpu.wall.Seconds(), w.jobs, "benchmark process CPU seconds per wall second")

	wb, wa := w.workerBefore, w.workerAfter
	submitted := delta(wb, wa, "pooled_engine_jobs_total", `outcome="submitted"`)
	rejected := delta(wb, wa, "pooled_engine_jobs_total", `outcome="rejected"`)
	rep.set("engine.rejected_frac", rejected/max(submitted, 1), int(submitted), "worker pooled_engine_jobs_total rejected over submitted (a rejected job comes back to the frontend as a 429)")

	frames := delta(fb, fa, "pooled_remote_batch_jobs_count")
	carried := delta(fb, fa, "pooled_remote_batch_jobs_sum")
	rep.set("remote.frames", frames, int(frames), "binary batch frames sent (pooled_remote_batch_jobs_count)")
	rep.set("remote.jobs_per_frame", carried/max(frames, 1), int(frames), "pooled_remote_batch_jobs sum over count; jobs sent per-job are not in frames")
	rep.set("remote.retries", delta(fb, fa, "pooled_remote_retries_total"), w.jobs, "pooled_remote_retries_total delta")
	rep.set("remote.saturated", delta(fb, fa, "pooled_remote_saturated_total"), w.jobs, "pooled_remote_saturated_total delta")
}
