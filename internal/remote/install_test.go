package remote

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"pooleddata/internal/engine"
	"pooleddata/internal/graph"
	"pooleddata/internal/labio"
	"pooleddata/internal/pooling"
)

// installWriters counts the goroutines still inside one of ensure's
// closures: the design writer, or a caller waiting for it.
func installWriters() int {
	var buf bytes.Buffer
	pprof.Lookup("goroutine").WriteTo(&buf, 2)
	return strings.Count(buf.String(), "(*Shard).ensure.func")
}

// installScheme builds a design whose CSV (megabytes) is far larger than
// any buffer between the client's writer and the worker, so a worker
// that stops reading leaves the writer blocked.
func installScheme(t *testing.T) *engine.Scheme {
	t.Helper()
	g, err := pooling.RandomRegular{}.Build(2000, 200, pooling.BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return engine.NewSchemeAt(engine.Spec{}, g, 0)
}

// TestInstallStreamsDesign checks that an install arrives as a chunked
// stream (no Content-Length) and parses back into the same design.
func TestInstallStreamsDesign(t *testing.T) {
	sc := installScheme(t)
	var (
		mu     sync.Mutex
		length int64
		got    *graph.Bipartite
		rerr   error
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut {
			mu.Lock()
			length = r.ContentLength
			got, rerr = labio.ReadDesign(r.Body)
			mu.Unlock()
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer ts.Close()
	sh := newShard(t, ts, nil)
	if err := sh.ensure(sh.stateFor(sc)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if length != -1 {
		t.Fatalf("install Content-Length %d, want -1 (streamed)", length)
	}
	if rerr != nil {
		t.Fatalf("worker could not parse the streamed design: %v", rerr)
	}
	var want, have bytes.Buffer
	labio.WriteDesign(&want, sc.G)
	labio.WriteDesign(&have, got)
	if !bytes.Equal(want.Bytes(), have.Bytes()) {
		t.Fatal("streamed design differs from the scheme's")
	}
	eventually(t, 2*time.Second, func() bool { return installWriters() == 0 },
		"design writer goroutine left after a successful install")
}

// TestInstallFailureStopsWriter checks that an install which fails
// before the worker has read the design leaves no writer goroutine
// behind: when the worker answers without reading, when it cannot be
// reached, and when no request can even be built for its address.
func TestInstallFailureStopsWriter(t *testing.T) {
	sc := installScheme(t)
	refuse := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer refuse.Close()
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close() // its address now refuses connections

	for name, addr := range map[string]string{
		"answers-unread":    refuse.Listener.Addr().String(),
		"unreachable":       gone.Listener.Addr().String(),
		"malformed-address": "127.0.0.1:no-port",
	} {
		sh := New(fastOptions(addr))
		if err := sh.ensure(sh.stateFor(sc)); err == nil {
			t.Fatalf("%s: install succeeded", name)
		}
		// ensure has waited for the writer to finish; give it a moment
		// to return, so only a writer still blocked on the pipe counts.
		eventually(t, 2*time.Second, func() bool { return installWriters() == 0 },
			name+": design writer goroutine left after a failed install")
		sh.Close()
	}
}
