package main

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span and traceTree mirror pooledd's GET /v1/traces/{id} body.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

type traceTree struct {
	ID    string    `json:"id"`
	Start time.Time `json:"start"`
	DurNS int64     `json:"dur_ns"`
	Spans []span    `json:"spans"`
}

// end is the wall time the frontend sealed the trace.
func (t *traceTree) end() time.Time { return t.Start.Add(time.Duration(t.DurNS)) }

// selfTimes returns each span's self time by span name: its duration
// minus the part of its interval that its children cover. Over a tree
// whose children nest inside their parents, the self times sum to the
// root's duration.
func (t *traceTree) selfTimes() map[string]time.Duration {
	kids := map[uint64][]span{}
	for _, s := range t.Spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.Spans {
		covered := coverage(kids[s.ID], s.StartNS, s.StartNS+s.DurNS)
		out[s.Name] += time.Duration(s.DurNS - covered)
	}
	return out
}

// coverage is the length of [lo, hi) covered by the union of spans.
func coverage(spans []span, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range spans {
		a, b := max(s.StartNS, lo), min(s.StartNS+s.DurNS, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	return total + curB - curA
}

// joiner fetches the traces of settled jobs while the load runs: the
// frontend's trace ring holds 1024 traces, so waiting until the end of
// a window would lose most of them. It uses its own single connection.
type joiner struct {
	base  string
	hc    *http.Client
	delay time.Duration // campaign traces seal just after their SSE event
	queue chan pending
	wg    sync.WaitGroup

	mu      sync.Mutex
	trees   map[string]*traceTree
	skipped int
}

type pending struct {
	id    string
	ready time.Time
}

// joinerBacklog bounds the ids waiting for a fetch; beyond it ids are
// skipped and counted instead of slowing the load generator.
const joinerBacklog = 4096

func newJoiner(ctx context.Context, base string, delay time.Duration) *joiner {
	j := &joiner{base: base, hc: newClient(1), delay: delay,
		queue: make(chan pending, joinerBacklog), trees: map[string]*traceTree{}}
	j.wg.Add(1)
	go j.loop(ctx)
	return j
}

// add queues a settled job's trace id for fetching.
func (j *joiner) add(id string) {
	select {
	case j.queue <- pending{id, time.Now().Add(j.delay)}:
	default:
		j.mu.Lock()
		j.skipped++
		j.mu.Unlock()
	}
}

// close waits for every queued fetch and returns the joined traces.
func (j *joiner) close() map[string]*traceTree {
	close(j.queue)
	j.wg.Wait()
	j.hc.CloseIdleConnections()
	return j.trees
}

func (j *joiner) loop(ctx context.Context) {
	defer j.wg.Done()
	for p := range j.queue {
		id := p.id
		time.Sleep(time.Until(p.ready))
		for attempt := 0; attempt < 5 && ctx.Err() == nil; attempt++ {
			var t traceTree
			if getJSON(ctx, j.hc, j.base+"/v1/traces/"+id, &t) == nil {
				j.mu.Lock()
				j.trees[id] = &t
				j.mu.Unlock()
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
}

// layerDists collects per-span-name self-time distributions.
type layerDists map[string]*dist

func (l layerDists) add(name string, d time.Duration) {
	if l[name] == nil {
		l[name] = &dist{}
	}
	l[name].addDur(d)
}

func (l layerDists) get(name string) dist {
	if l[name] == nil {
		return nil
	}
	return *l[name]
}

// setPair reports a distribution's p50 and p99 under name.p50/name.p99.
func setPair(rep *report, name string, d dist, note string) {
	rep.set(name+".p50", d.q(0.5), len(d), note)
	rep.set(name+".p99", d.q(0.99), len(d), note)
}

// reportSpans fills the span-derived layer metrics shared by both HTTP
// workloads.
func reportSpans(rep *report, l layerDists) {
	setPair(rep, "engine.shard_queue_ms", l.get("shard_queue"), "self time of span shard_queue (remote client queue + coalesce wait)")
	for _, s := range []string{"serialize", "network", "worker_queue", "worker_decode"} {
		setPair(rep, "remote."+s+"_ms", l.get(s), "self time of span "+s)
	}
}

// pathRow is one job's client-observed time and the self times of the
// stages on its blocking path.
type pathRow struct {
	client time.Duration
	stages map[string]time.Duration
}

// reportPath accounts for the client-observed median with the jobs
// around it: those between the 45th and 55th percentile of client time,
// each stage's self time averaged over them. Averages over one set of
// jobs add up, so the remainder is the time no stage covers.
func reportPath(rep *report, rows []pathRow, path []string) {
	if len(rows) == 0 {
		return
	}
	var client dist
	for _, r := range rows {
		client.addDur(r.client)
	}
	sorted := append([]pathRow(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].client < sorted[j].client })
	lo := len(sorted) * 45 / 100
	hi := max(len(sorted)*55/100, lo+1)
	band := sorted[lo:hi]
	mean := func(f func(pathRow) time.Duration) float64 {
		var t time.Duration
		for _, r := range band {
			t += f(r)
		}
		return ms(t) / float64(len(band))
	}
	sum, note := 0.0, ""
	for _, name := range path {
		v := mean(func(r pathRow) time.Duration { return r.stages[name] })
		sum += v
		note += " " + name + "=" + fmtMS(v)
	}
	rep.set("path.client_p50_ms", client.q(0.5), len(client), "client-observed median")
	rep.set("path.self_sum_p50_ms", sum, len(band), "stage self times averaged over the jobs between p45 and p55 of client time:"+note)
	rep.set("path.unexplained_ms", mean(func(r pathRow) time.Duration { return r.client })-sum, len(band), "mean client time of those jobs minus the stage sum")
}

func fmtMS(v float64) string {
	return strconv.FormatFloat(v, 'f', 3, 64) + "ms"
}
