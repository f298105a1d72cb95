package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The HTTP workloads run one pooledd frontend federated to one
// pooledd -worker: the box the benchmark was sized on has two CPUs, one
// per process.

var (
	childMu  sync.Mutex
	children []*exec.Cmd
)

// killChildren SIGKILLs every pooledd this process started and waits
// for each to exit.
func killChildren() {
	childMu.Lock()
	defer childMu.Unlock()
	for _, c := range children {
		_ = c.Process.Kill() // already exited is fine
		_ = c.Wait()
	}
	children = nil
}

// freePort asks the kernel for an unused loopback port. Ephemeral ports
// sit far from the fixed 1823x/1939x ports the repository's scripts and
// stale servers use.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// fleet is a running frontend + worker pair.
type fleet struct {
	front, worker *exec.Cmd
	workAddr      string
	base          string // frontend URL
	walDir        string
	hc            *http.Client
}

type fleetOptions struct {
	traced        bool
	tenantWeights string
	wal           bool
}

// startFleet boots a worker, waits for its health endpoint, boots a
// frontend pointed at it and waits until the frontend lists the worker
// as a healthy ring member. Its client allows at most two connections.
func startFleet(ctx context.Context, cfg config, opt fleetOptions) (*fleet, error) {
	wa, err := freePort()
	if err != nil {
		return nil, err
	}
	fa, err := freePort()
	if err != nil {
		return nil, err
	}
	f := &fleet{workAddr: wa, base: "http://" + fa, hc: newClient(2)}
	f.worker, err = spawn(cfg, "worker", "-worker", "-addr", wa)
	if err != nil {
		return nil, err
	}
	if err := waitFor(ctx, 10*time.Second, func() bool {
		var h struct {
			OK bool `json:"ok"`
		}
		return getJSON(ctx, f.hc, "http://"+wa+"/shard/v1/health", &h) == nil && h.OK
	}); err != nil {
		return nil, fmt.Errorf("worker %s never became healthy: %w", wa, err)
	}
	args := []string{"-addr", fa, "-workers", wa}
	if opt.tenantWeights != "" {
		args = append(args, "-tenant-weights", opt.tenantWeights)
	}
	if opt.wal {
		f.walDir, err = os.MkdirTemp(cfg.workdir, "wal-")
		if err != nil {
			return nil, err
		}
		args = append(args, "-wal-dir", f.walDir)
	}
	if opt.traced {
		args = append(args, "-trace-sample", "1")
	}
	f.front, err = spawn(cfg, "frontend", args...)
	if err != nil {
		return nil, err
	}
	if err := waitFor(ctx, 10*time.Second, func() bool {
		var ws struct {
			Workers []struct {
				Addr    string `json:"addr"`
				Healthy bool   `json:"healthy"`
				Member  bool   `json:"member"`
			} `json:"workers"`
		}
		if getJSON(ctx, f.hc, f.base+"/v1/workers", &ws) != nil {
			return false
		}
		for _, w := range ws.Workers {
			if w.Addr == wa && w.Healthy && w.Member {
				return true
			}
		}
		return false
	}); err != nil {
		return nil, fmt.Errorf("frontend %s never listed worker %s as a healthy member: %w", fa, wa, err)
	}
	return f, nil
}

// spawn starts pooledd with its log in the work directory. The child
// dies with this process even if it is SIGKILLed.
func spawn(cfg config, role string, args ...string) (*exec.Cmd, error) {
	if cfg.pooledd == "" {
		return nil, fmt.Errorf("no -pooledd binary given")
	}
	logf, err := os.Create(filepath.Join(cfg.workdir, role+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	c := exec.Command(cfg.pooledd, args...)
	c.Stdout, c.Stderr = logf, logf
	c.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	childMu.Lock()
	defer childMu.Unlock()
	if err := c.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", role, err)
	}
	children = append(children, c)
	return c, nil
}

// stop terminates both processes gracefully (SIGTERM, then SIGKILL
// after a grace period), waits for them, and removes the WAL.
func (f *fleet) stop() {
	for _, c := range []*exec.Cmd{f.front, f.worker} {
		if c == nil {
			continue
		}
		_ = c.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { _ = c.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			_ = c.Process.Kill()
			<-done
		}
		childMu.Lock()
		for i, o := range children {
			if o == c {
				children = append(children[:i], children[i+1:]...)
				break
			}
		}
		childMu.Unlock()
	}
	f.hc.CloseIdleConnections()
	if f.walDir != "" {
		_ = os.RemoveAll(f.walDir)
	}
}

// peakRSS is the summed VmHWM of both processes.
func (f *fleet) peakRSS() float64 {
	return procHWM(f.front.Process.Pid) + procHWM(f.worker.Process.Pid)
}

// createScheme registers the random-regular (n, m, seed) design.
func (f *fleet) createScheme(ctx context.Context, n, m int, seed uint64) (string, error) {
	body := fmt.Sprintf(`{"design":"random-regular","n":%d,"m":%d,"seed":%d}`, n, m, seed)
	var out struct {
		ID string `json:"id"`
	}
	status, _, err := postJSON(ctx, f.hc, f.base+"/v1/schemes", "", []byte(body), &out)
	if err != nil {
		return "", err
	}
	if status/100 != 2 || out.ID == "" {
		return "", fmt.Errorf("create scheme: status %d", status)
	}
	return out.ID, nil
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

func getJSON(ctx context.Context, hc *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// postJSON posts body and decodes a 2xx reply into out. The status and
// headers are returned for every reply; other statuses leave out
// untouched.
func postJSON(ctx context.Context, hc *http.Client, url, requestID string, body []byte, out any) (int, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if requestID != "" {
		req.Header.Set("X-Request-ID", requestID)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, resp.Header, nil
	}
	return resp.StatusCode, resp.Header, json.NewDecoder(resp.Body).Decode(out)
}

func waitFor(ctx context.Context, limit time.Duration, cond func() bool) error {
	deadline := time.Now().Add(limit)
	for !cond() {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v", limit)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// promSample maps "name{labels}" series to values.
type promSample map[string]float64

// scrape reads a /metrics exposition.
func scrape(ctx context.Context, hc *http.Client, base string) (promSample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := promSample{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of the metric whose labels contain all of the
// given label fragments (e.g. `tenant="a"`).
func (p promSample) sum(name string, labels ...string) float64 {
	t := 0.0
	for k, v := range p {
		if k != name && !strings.HasPrefix(k, name+"{") {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(k, l) {
				ok = false
				break
			}
		}
		if ok {
			t += v
		}
	}
	return t
}

// delta is after minus before for one metric.
func delta(before, after promSample, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}

// histQuantile estimates a quantile of the observations a histogram
// gained between two scrapes, interpolating inside the bucket (as
// Prometheus' histogram_quantile does). Values are in the histogram's
// unit.
func histQuantile(before, after promSample, name string, q float64) (float64, int) {
	type bucket struct{ le, n float64 }
	var bs []bucket
	for k, v := range after {
		if !strings.HasPrefix(k, name+"_bucket{") {
			continue
		}
		i := strings.Index(k, `le="`)
		if i < 0 {
			continue
		}
		raw := k[i+4:]
		raw = raw[:strings.IndexByte(raw, '"')]
		le, err := strconv.ParseFloat(raw, 64) // "+Inf" parses as +Inf
		if err != nil {
			continue
		}
		bs = append(bs, bucket{le, v - before[k]})
	}
	if len(bs) == 0 {
		return 0, 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := bs[len(bs)-1].n
	if total <= 0 {
		return 0, 0
	}
	rank := q * total
	prevLe, prevN := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if math.IsInf(b.le, 1) {
				return prevLe, int(total)
			}
			if b.n == prevN {
				return b.le, int(total)
			}
			return prevLe + (b.le-prevLe)*(rank-prevN)/(b.n-prevN), int(total)
		}
		prevLe, prevN = b.le, b.n
	}
	return prevLe, int(total)
}
