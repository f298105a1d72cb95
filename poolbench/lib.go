package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	pooled "pooleddata"
	"pooleddata/internal/thresholds"
)

// lib-sweep: the library and simulation use, in process and without
// HTTP, remote, campaigns or the WAL. pooled.NewEngine → Engine.Scheme →
// Engine.MeasureBatch → Engine.DecodeBatch(MN) at n=3·10⁴, k=22
// (θ=0.3), for several m around thresholds.MN, so the recovery rate
// crosses from low to high as in the paper's simulations. It exercises
// the design build, the query batch kernel and the bit-sliced MN batch
// decode on a larger working set than the HTTP workloads.
const (
	libN, libK   = 30000, 22
	libB         = 64 // signals per batch
	libBatchesPM = 2  // distinct batches per m, taken in turn
	// libPeakProbes is how many untimed batches after the window measure
	// the peak resident set, each from a collected heap: the peak over
	// the timed batches depends on where the garbage collector happened
	// to run, this one only on the scheme's and one batch's footprint.
	libPeakProbes = 3
)

// libFactors place the swept m as multiples of thresholds.MN(n, k).
var libFactors = []float64{0.9, 1.25, 1.6}

// libSet is one m of the sweep with its reference: counts from the
// per-signal Scheme.Measure and supports from the per-signal
// Scheme.Reconstruct, both other code paths than the batch kernels the
// workload times.
type libSet struct {
	m       int
	s       *pooled.Scheme
	planted [][]int
	signals [][]bool
	counts  [][]int64
	ref     [][]int
}

// reference fills the per-signal counts and supports, two signals at a
// time (Scheme is safe for concurrent use).
func (st *libSet) reference() error {
	st.counts = make([][]int64, len(st.signals))
	st.ref = make([][]int, len(st.signals))
	errs := make([]error, len(st.signals))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(st.signals); i += 2 {
				st.counts[i] = st.s.Measure(st.signals[i])
				st.ref[i], errs[i] = st.s.Reconstruct(st.counts[i], libK)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

type libBatch struct {
	set             int // index into the sweep
	measure, decode time.Duration
	rec             int // signals recovered exactly
}

func runLib(ctx context.Context, cfg config, rep *report) error {
	mMN := thresholds.MN(libN, libK)
	r := rand.New(rand.NewPCG(cfg.seed, 0x2545f4914f6cdd1d))
	sets := make([]*libSet, len(libFactors))
	for i, f := range libFactors {
		st := &libSet{m: int(math.Round(f * mMN))}
		for b := 0; b < libB*libBatchesPM; b++ {
			sup := plant(r, libN, libK)
			st.planted = append(st.planted, sup)
			st.signals = append(st.signals, indicator(libN, sup))
		}
		sets[i] = st
	}

	// One m at a time: a scheme at n=3·10⁴ holds a few hundred MiB, so
	// the sweep builds, measures and drops them in turn. Each build is
	// one set-up sample; each m gets an equal share of the window.
	var setups []float64
	var batches []libBatch
	var peaks dist // MiB
	signals := 0
	var wall time.Duration
	for si, st := range sets {
		t0 := time.Now()
		eng := pooled.NewEngine(pooled.EngineOptions{})
		var err error
		st.s, err = eng.Scheme(libN, st.m, pooled.Options{Seed: cfg.seed})
		if err != nil {
			eng.Close()
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		tRef := time.Now()
		if err := st.reference(); err != nil {
			eng.Close()
			return err
		}
		refTime := time.Since(tRef)
		t0 = time.Now()
		deadline := t0.Add(time.Duration(cfg.seconds / float64(len(sets)) * float64(time.Second)))
		for j := 0; time.Now().Before(deadline) && ctx.Err() == nil; j++ {
			b, err := libOnce(ctx, eng, st, j%libBatchesPM, rep)
			if err != nil {
				eng.Close()
				return err
			}
			b.set = si
			batches = append(batches, b)
			signals += libB
		}
		wall += time.Since(t0)
		// The largest m holds the largest scheme.
		for j := 0; si == len(sets)-1 && !cfg.traced && j < libPeakProbes; j++ {
			debug.FreeOSMemory()
			if err := resetHWM(); err != nil {
				eng.Close()
				return fmt.Errorf("reset the peak resident set: %w", err)
			}
			if _, err := libOnce(ctx, eng, st, j%libBatchesPM, rep); err != nil {
				eng.Close()
				return err
			}
			peaks.add(procHWM(os.Getpid()))
			rep.attempted += libB
		}
		fmt.Fprintf(os.Stderr, "lib-sweep: m=%d build %.2fs, reference %.2fs, window %.2fs\n", st.m, setups[si], refTime.Seconds(), time.Since(t0).Seconds())
		eng.Close()
		if st != sets[len(sets)-1] {
			st.s = nil // the last scheme stays for the probes
			runtime.GC()
			debug.FreeOSMemory()
		}
	}
	rep.attempted += signals

	var lat, dec dist
	perSet := make([]dist, len(sets))
	rec, decoded := make([]int, len(sets)), make([]int, len(sets))
	for _, b := range batches {
		lat.addDur(b.measure + b.decode)
		dec.addDur(b.decode)
		perSet[b.set].addDur(b.measure + b.decode)
		rec[b.set] += b.rec
		decoded[b.set] += libB
	}
	// Each m weighs the same in the recovery rate, however many batches
	// its share of the window held.
	recFrac := 0.0
	for i := range sets {
		recFrac += float64(rec[i]) / float64(max(decoded[i], 1)) / float64(len(sets))
	}
	// Throughput from each m's median batch time: one B-signal batch per
	// m takes the sum of the medians. Medians keep a few batches slowed
	// by other tenants of a shared machine from moving the figure.
	sweepMS := 0.0
	for _, d := range perSet {
		sweepMS += d.q(0.5)
	}
	ms := make([]int, len(sets))
	for i, st := range sets {
		ms[i] = st.m
	}
	if !cfg.traced {
		tq := tailQ(len(lat))
		rep.set("setup_s", median(setups), len(setups), fmt.Sprintf("median over the sweep of NewEngine + Engine.Scheme, one build per m=%v", ms))
		rep.set("peak_rss_mb", peaks.q(0.5), len(peaks), fmt.Sprintf("VmHWM of the benchmark process over one untimed batch at m=%d, from a collected heap (median of the probes)", sets[len(sets)-1].m))
		rep.set("recovery_frac", recFrac, signals, fmt.Sprintf("MN exact recovery of %d signals per m, averaged over m=%v (thresholds.MN=%.0f)", libB*libBatchesPM, ms, mMN))
		rep.set("throughput_per_s", float64(libB*len(sets))/(sweepMS/1e3), signals, fmt.Sprintf("lib_signals_per_s: signals measured and decoded per second, from the median batch time of each m (mean over the window %.1f/s)", float64(signals)/wall.Seconds()))
		rep.set("latency_p50_ms", sweepMS/float64(len(sets)), len(lat), fmt.Sprintf("MeasureBatch+DecodeBatch of one B=%d batch: the median for each m, averaged over the sweep", libB))
		rep.info("latency_tail_ms", "ms", lat.q(tq), len(lat), "batch "+qName(tq))
		return nil
	}

	// Per-layer: the harness timed each call into the engine; the probes
	// time the modules under it on the largest m.
	rep.set("jobs", float64(signals), signals, "signals measured and decoded")
	rep.set("engine.decode_batch_ms_per_signal", dec.q(0.5)/libB, len(dec), fmt.Sprintf("Engine.DecodeBatch(MN) per signal, median batch over m=%v", ms))
	rows := make([]pathRow, len(batches))
	for i, b := range batches {
		rows[i] = pathRow{client: b.measure + b.decode, stages: map[string]time.Duration{
			"Engine.MeasureBatch": b.measure, "Engine.DecodeBatch": b.decode}}
	}
	reportPath(rep, rows, []string{"Engine.MeasureBatch", "Engine.DecodeBatch"})
	top := sets[len(sets)-1]
	in := &inputs{n: libN, m: top.m, k: libK, schemeSeed: cfg.seed, planted: top.planted,
		counts: top.counts, ref: top.ref, refDecoder: "mn"}
	return probeLayers(rep, in)
}

// libOnce measures and decodes batch j of the m through the engine and
// checks both against the per-signal reference.
func libOnce(ctx context.Context, eng *pooled.Engine, st *libSet, j int, rep *report) (libBatch, error) {
	var b libBatch
	lo := j * libB
	t0 := time.Now()
	counts := eng.MeasureBatch(st.s, st.signals[lo:lo+libB])
	t1 := time.Now()
	res, err := eng.DecodeBatch(ctx, st.s, counts, libK, pooled.MN)
	b.measure, b.decode = t1.Sub(t0), time.Since(t1)
	if err != nil {
		return b, err
	}
	for i := range counts {
		if !slices.Equal(counts[i], st.counts[lo+i]) {
			rep.mismatch("lib m=%d signal %d: batch counts differ from Scheme.Measure", st.m, lo+i)
		}
		if !slices.Equal(res[i].Support, st.ref[lo+i]) {
			rep.mismatch("lib m=%d signal %d: got %v, reference %v", st.m, lo+i, res[i].Support, st.ref[lo+i])
		}
		if slices.Equal(res[i].Support, st.planted[lo+i]) {
			b.rec++
		}
	}
	return b, nil
}
