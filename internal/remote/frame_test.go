package remote

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/engine"
	"pooleddata/internal/noise"
	"pooleddata/internal/query"
	"pooleddata/internal/rng"
	"pooleddata/metrics"
)

func TestBatchFrameRoundTrip(t *testing.T) {
	jobs := []batchJob{
		{Scheme: "random-regular|400|160|7", Noise: "exact", Decoder: "mn", Trace: "t-1", K: 6,
			Y: []int64{0, 3, -1, 1 << 40, -(1 << 40)}},
		{Scheme: "adhoc-1-2", Noise: "gaussian:1.5:5", Trace: "", K: 0, Y: []int64{}},
	}
	parsed, err := parseBatchRequest(appendBatchRequest(nil, jobs))
	if err != nil {
		t.Fatalf("parse request: %v", err)
	}
	if !reflect.DeepEqual(parsed, jobs) {
		t.Fatalf("request round trip:\n got %+v\nwant %+v", parsed, jobs)
	}

	results := []batchResult{
		{Status: batchOK, Decoder: "mn-refined", Residual: -12, Consistent: true,
			QueueNS: 12345, DecodeNS: 67890, Support: []int{0, 2, 2, 17, 399}},
		{Status: batchSaturated, Err: "decode queue saturated"},
		{Status: batchOK, Decoder: "mn", Residual: 0, Consistent: false,
			QueueNS: 0, DecodeNS: 1},
		{Status: batchDecodeErr, Err: "k out of range"},
	}
	got, err := parseBatchResponse(appendBatchResponse(nil, results))
	if err != nil {
		t.Fatalf("parse response: %v", err)
	}
	if !reflect.DeepEqual(got, results) {
		t.Fatalf("response round trip:\n got %+v\nwant %+v", got, results)
	}
}

// TestBatchFrameRejectsHostileLengths: claimed sizes beyond what the
// frame can hold must fail cleanly before any allocation matches them.
func TestBatchFrameRejectsHostileLengths(t *testing.T) {
	huge := appendUvarint([]byte{'p', 'b', frameVersion}, 1)
	huge = appendString(huge, "s")
	huge = appendString(huge, "exact")
	huge = appendString(huge, "")
	huge = appendString(huge, "")
	huge = appendUvarint(huge, 1)
	huge = appendUvarint(huge, 1<<40) // y claims a terabyte
	if _, err := parseBatchRequest(huge); err == nil {
		t.Fatal("request with absurd y length parsed")
	}

	manyJobs := appendUvarint([]byte{'p', 'b', frameVersion}, maxBatchJobs+1)
	if _, err := parseBatchRequest(manyJobs); err == nil {
		t.Fatal("request with over-limit job count parsed")
	}

	resp := appendUvarint([]byte{'p', 'r', frameVersion}, 1)
	resp = append(resp, batchOK)
	resp = appendString(resp, "mn")
	resp = append(resp, 0) // residual varint 0
	resp = append(resp, 1) // consistent
	resp = appendUvarint(resp, 0)
	resp = appendUvarint(resp, 0)
	resp = appendUvarint(resp, 1<<40) // support claims 2^40 entries
	if _, err := parseBatchResponse(resp); err == nil {
		t.Fatal("response with absurd support length parsed")
	}

	if _, err := parseBatchRequest([]byte{'p', 'b', frameVersion + 1, 0}); err == nil {
		t.Fatal("future frame version parsed")
	}
	valid := appendBatchRequest(nil, []batchJob{{Scheme: "s", Noise: "exact", Y: []int64{1}}})
	if _, err := parseBatchRequest(append(valid, 0xFF)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// TestBatchedDecodeMatchesLocal is the wire-format contract of the
// frame path: a burst of exact and noisy jobs shipped as binary batch
// frames settles bit-identically to the same jobs on a local engine,
// while the request count proves frames carried several jobs.
func TestBatchedDecodeMatchesLocal(t *testing.T) {
	const n, m, k, batch = 400, 160, 6, 24
	nm := noise.Model{Kind: noise.Gaussian, Sigma: 1.2, Seed: 9}

	local := engine.New(engine.Config{})
	defer local.Close()
	ls, err := local.Scheme(nil, n, m, 7)
	if err != nil {
		t.Fatal(err)
	}

	wc := engine.NewCluster(engine.ClusterConfig{
		Shards: 1, Shard: engine.Config{CacheCapacity: 8, Workers: 2, QueueDepth: 64},
	})
	t.Cleanup(wc.Close)
	var batchPosts atomic.Int64
	inner := NewServer(wc, ServerOptions{}).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == decodeBatchPath {
			batchPosts.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	reg := metrics.NewRegistry()
	sh := newShard(t, ts, func(o *Options) {
		o.Senders = 1
		o.QueueDepth = batch
		o.Metrics = reg
	})
	cluster := engine.NewClusterOf(sh)
	rs, err := cluster.Scheme(nil, n, m, 7)
	if err != nil {
		t.Fatal(err)
	}

	sigmas := make([]*bitvec.Vector, batch)
	ys := make([][]int64, batch)
	models := make([]noise.Model, batch)
	for b := range sigmas {
		sigmas[b] = bitvec.Random(n, k, rng.NewRandSeeded(uint64(50+b)))
		if b%2 == 0 {
			ys[b] = query.Execute(ls.G, sigmas[b], query.Options{}).Y
		} else {
			models[b] = nm
			ys[b] = local.MeasureBatch(ls, sigmas[b:b+1], nm)[0]
		}
	}

	futs := make([]*engine.Future, batch)
	for b := range futs {
		fut, err := cluster.Submit(context.Background(), engine.Job{Scheme: rs, Y: ys[b], K: k, Noise: models[b]})
		if err != nil {
			t.Fatalf("submit %d: %v", b, err)
		}
		futs[b] = fut
	}
	for b, fut := range futs {
		got, err := fut.Wait(context.Background())
		if err != nil {
			t.Fatalf("job %d: %v", b, err)
		}
		want, err := local.Decode(context.Background(), engine.Job{Scheme: ls, Y: ys[b], K: k, Noise: models[b]})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Support, want.Support) {
			t.Fatalf("job %d support %v != local %v", b, got.Support, want.Support)
		}
		if got.Decoder != want.Decoder {
			t.Fatalf("job %d decoder %q != local %q", b, got.Decoder, want.Decoder)
		}
		if got.Stats.Residual != want.Stats.Residual || got.Stats.Consistent != want.Stats.Consistent {
			t.Fatalf("job %d stats (res=%d cons=%v) != local (res=%d cons=%v)",
				b, got.Stats.Residual, got.Stats.Consistent, want.Stats.Residual, want.Stats.Consistent)
		}
	}

	if bp := batchPosts.Load(); bp < 1 || bp >= batch {
		t.Fatalf("batch posts = %d for %d jobs, want multi-job frames (1..%d)", bp, batch, batch-1)
	}
	addr := ts.Listener.Addr().String()
	var observed uint64
	for _, fam := range reg.Gather() {
		if fam.Name != "pooled_remote_batch_jobs" {
			continue
		}
		for _, smp := range fam.Samples {
			if smp.Values[0] == addr {
				observed = smp.Count
			}
		}
	}
	if observed != uint64(batchPosts.Load()) {
		t.Fatalf("batch-size histogram observed %d requests, wire saw %d", observed, batchPosts.Load())
	}
}

// FuzzBatchFrame throws arbitrary bytes at both frame parsers: they
// must never panic, never allocate beyond the input's own size class,
// and anything they accept must re-encode and re-parse to the same
// value.
func FuzzBatchFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{'p', 'b', frameVersion, 0})
	f.Add([]byte{'p', 'r', frameVersion, 0})
	f.Add(appendBatchRequest(nil, []batchJob{
		{Scheme: "random-regular|400|160|7", Noise: "gaussian:1.5:5", Decoder: "mn", Trace: "t", K: 6, Y: []int64{1, -2, 3}},
	}))
	f.Add(appendBatchResponse(nil, []batchResult{
		{Status: batchOK, Decoder: "mn-refined", Residual: -7, Consistent: true, QueueNS: 5, DecodeNS: 9, Support: []int{2, 5, 9}},
		{Status: batchSaturated, Err: "full"},
	}))
	valid := appendBatchRequest(nil, []batchJob{{Scheme: "s", Noise: "exact", Y: []int64{42}}})
	f.Add(valid[:len(valid)/2])
	f.Add(append(valid[:len(valid):len(valid)], 0xFF))
	f.Add([]byte{'p', 'b', frameVersion, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})

	f.Fuzz(func(t *testing.T, data []byte) {
		if jobs, err := parseBatchRequest(data); err == nil {
			again, err := parseBatchRequest(appendBatchRequest(nil, jobs))
			if err != nil {
				t.Fatalf("re-encoded request failed to parse: %v", err)
			}
			if !reflect.DeepEqual(again, jobs) {
				t.Fatalf("request not stable under re-encode:\n got %+v\nwant %+v", again, jobs)
			}
		}
		if results, err := parseBatchResponse(data); err == nil {
			again, err := parseBatchResponse(appendBatchResponse(nil, results))
			if err != nil {
				t.Fatalf("re-encoded response failed to parse: %v", err)
			}
			if !reflect.DeepEqual(again, results) {
				t.Fatalf("response not stable under re-encode:\n got %+v\nwant %+v", again, results)
			}
		}
	})
}
