package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	pooled "pooleddata"
)

// campaign-gaussian: two tenants with weights a=3, b=1, each in a
// closed loop of POST /v1/campaigns (B=128 gaussian σ=0.5 signals, the
// server picks mn-refined) and then the campaign's SSE stream until its
// done event. Same scheme and fleet as sync-exact plus a WAL with the
// default fsync-always policy. Bursts of 128 jobs coalesce into binary
// frames on the wire and decoder.Refined dominates the decode time; the
// workload also covers campaign admission, weighted tenant queueing,
// WAL appends and SSE delivery, all of which sync-exact bypasses.
const (
	campB       = 128
	campBatches = 8 // distinct batches the tenants cycle through
	campSigma   = 0.5
	campWarm    = 8 // jobs in the set-up campaign that installs the scheme
	// campBoots is how many fresh fleets one untraced run boots, each
	// measuring an equal share of the window: campaign times shift
	// between boots and between phases of a shared host's load, and the
	// run's median pools the campaigns of all of them.
	campBoots = 5
	// campThink is the client's pause between a done event and the next
	// submit. It outlasts the remote client's 250ms memory of a worker
	// 429, which otherwise refuses the next campaign and sends the client
	// into a one-second Retry-After sleep.
	campThink = 300 * time.Millisecond
)

var campTenants = []string{"a", "b"}

// campRun is one campaign as the client saw it.
type campRun struct {
	id                string
	submit, first     time.Time // the admitted POST; the first result event
	done              time.Time
	busy              int // POSTs answered 429 before admission
	refused           bool
	jobs, failed, rec int
	events            []campEvent
}

type campEvent struct {
	traceID string
	recv    time.Time
}

type campResult struct {
	runs []*campRun
	t0   time.Time
	t1   time.Time
	win  window
}

func runCampaign(ctx context.Context, cfg config, rep *report) error {
	nm := pooled.NoiseModel{Kind: "gaussian", Sigma: campSigma, Seed: cfg.seed}
	in, err := generate(ctx, cfg.seed, syncN, syncM, syncK, campB*campBatches, nm)
	if err != nil {
		return err
	}
	if !cfg.traced {
		// As in sync-exact, each boot runs a share of the window.
		var setups, rss []float64
		var parts []*campResult
		for p := 0; p < campBoots; p++ {
			t0 := time.Now()
			f, bodies, err := bootCampaign(ctx, cfg, in, rep, false)
			if err != nil {
				return err
			}
			setups = append(setups, time.Since(t0).Seconds())
			res, err := campaignLoad(ctx, f, in, bodies, cfg.seconds/campBoots, rep, nil)
			rss = append(rss, f.peakRSS())
			f.stop()
			if err != nil {
				return err
			}
			parts = append(parts, res)
		}
		reportCampaignE2E(rep, parts, setups, slices.Max(rss))
		return nil
	}

	half := cfg.seconds / 2
	f, bodies, err := bootCampaign(ctx, cfg, in, rep, false)
	if err != nil {
		return err
	}
	plain, err := campaignLoad(ctx, f, in, bodies, half, rep, nil)
	f.stop()
	if err != nil {
		return err
	}
	f, bodies, err = bootCampaign(ctx, cfg, in, rep, true)
	if err != nil {
		return err
	}
	// Campaign traces seal just after the job's SSE event.
	j := newJoiner(ctx, f.base, 300*time.Millisecond)
	traced, err := campaignLoad(ctx, f, in, bodies, half, rep, j)
	trees := j.close()
	f.stop()
	if err != nil {
		return err
	}
	return reportCampaignLayers(ctx, rep, in, plain, traced, trees, j.skipped)
}

// bootCampaign starts the fleet with tenant weights and a WAL,
// registers the scheme and runs a first campaign (the worker installs
// the scheme on it). All of it is set-up time.
func bootCampaign(ctx context.Context, cfg config, in *inputs, rep *report, traced bool) (*fleet, [][]byte, error) {
	f, err := startFleet(ctx, cfg, fleetOptions{traced: traced, tenantWeights: "a=3,b=1", wal: true})
	if err != nil {
		return nil, nil, err
	}
	sid, err := f.createScheme(ctx, in.n, in.m, in.schemeSeed)
	if err != nil {
		f.stop()
		return nil, nil, err
	}
	body := func(tenant string, batch [][]int64) []byte {
		b, _ := json.Marshal(map[string]any{
			"scheme": sid, "k": in.k, "tenant": tenant,
			"noise": map[string]any{"kind": "gaussian", "sigma": campSigma, "seed": in.noise.Seed},
			"batch": batch,
		})
		return b
	}
	warm := body(campTenants[0], in.counts[:campWarm])
	bodies := make([][]byte, campBatches*len(campTenants))
	for b := 0; b < campBatches; b++ {
		for ti, t := range campTenants {
			bodies[b*len(campTenants)+ti] = body(t, in.counts[b*campB:(b+1)*campB])
		}
	}
	w := runOneCampaign(ctx, f, in, warm, 0, "warm", rep, nil, time.Now().Add(time.Minute))
	if w == nil || w.refused || w.failed > 0 || w.jobs != campWarm {
		f.stop()
		return nil, nil, fmt.Errorf("warm-up campaign did not complete its %d jobs", campWarm)
	}
	return f, bodies, nil
}

// campaignLoad runs the tenants' closed loops for the window, taking
// turns: each tenant submits its next campaign campThink after the other
// tenant's campaign is done. pooledd refuses a campaign with 429 while another
// campaign keeps the owning shard's queue full, so overlapping loops
// would mostly time the client's Retry-After sleeps. A campaign started
// inside the window runs to its done event; jobs count towards
// throughput when their result arrives inside the window.
func campaignLoad(ctx context.Context, f *fleet, in *inputs, bodies [][]byte, seconds float64, rep *report, j *joiner) (*campResult, error) {
	res := &campResult{}
	var err error
	res.win.frontBefore, res.win.workerBefore, err = scrapeBoth(ctx, f)
	if err != nil {
		return nil, err
	}
	res.win.cpu = startCPU(f)
	res.t0 = time.Now()
	deadline := res.t0.Add(time.Duration(seconds * float64(time.Second)))
	// Every submit, the first included, follows a think time: the first
	// follows the set-up campaign.
	for n := 0; time.Now().Before(deadline) && ctx.Err() == nil; n++ {
		if !sleepCtx(ctx, campThink) {
			break
		}
		ti := n % len(campTenants)
		batch := (n / len(campTenants)) % campBatches
		id := fmt.Sprintf("camp-%s-%d", campTenants[ti], n)
		cr := runOneCampaign(ctx, f, in, bodies[batch*len(campTenants)+ti], batch, id, rep, j, deadline)
		if cr == nil {
			break // still refused when the window closed
		}
		res.runs = append(res.runs, cr)
	}
	res.t1 = deadline
	res.win.cpu.stop()
	res.win.frontAfter, res.win.workerAfter, err = scrapeBoth(ctx, f)
	if err != nil {
		return nil, err
	}
	for _, r := range res.runs {
		res.win.jobs += r.jobs
	}
	return res, ctx.Err()
}

// runOneCampaign submits one campaign and follows its SSE stream to the
// done event, checking every result against the reference. pooledd
// refuses a campaign with 429 + Retry-After while the owning shard's
// queue is full — which another tenant's running campaign causes — and
// the client waits as told and resubmits: the refusals are counted,
// and the campaign is timed from its admitted POST. It returns nil when
// the window closes before the campaign is admitted.
func runOneCampaign(ctx context.Context, f *fleet, in *inputs, body []byte, batch int, id string, rep *report, j *joiner, deadline time.Time) *campRun {
	cr := &campRun{}
	var created struct {
		ID string `json:"id"`
	}
	for {
		cr.submit = time.Now()
		status, hdr, err := postJSON(ctx, f.hc, f.base+"/v1/campaigns", id, body, &created)
		if err == nil && status == http.StatusTooManyRequests {
			cr.busy++
			wait := time.Second
			if s, err := strconv.Atoi(hdr.Get("Retry-After")); err == nil && s > 0 {
				wait = time.Duration(s) * time.Second
			}
			if time.Now().Add(wait).After(deadline) || !sleepCtx(ctx, wait) {
				return nil
			}
			continue
		}
		if err != nil || status != http.StatusAccepted {
			cr.refused = true
			return cr
		}
		break
	}
	cr.id = created.ID
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.base+"/v1/campaigns/"+created.ID+"/events", nil)
	if err != nil {
		cr.refused = true
		return cr
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		cr.refused = true
		return cr
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data := []byte(line[len("data: "):])
			if event == "done" {
				cr.done = time.Now()
				var d struct {
					Completed, Failed, Canceled int
				}
				if json.Unmarshal(data, &d) != nil || d.Completed+d.Failed+d.Canceled != cr.jobs {
					rep.mismatch("campaign %s: bad done event %s", cr.id, data)
				}
				continue
			}
			now := time.Now()
			var jr struct {
				Index   int    `json:"index"`
				Support []int  `json:"support"`
				Decoder string `json:"decoder"`
				Error   string `json:"error"`
				TraceID string `json:"trace_id"`
			}
			if err := json.Unmarshal(data, &jr); err != nil {
				rep.mismatch("campaign %s: bad result event %s", cr.id, data)
				continue
			}
			if cr.first.IsZero() {
				cr.first = now
			}
			cr.jobs++
			cr.events = append(cr.events, campEvent{traceID: jr.TraceID, recv: now})
			if jr.Error != "" {
				cr.failed++
				continue
			}
			i := batch*campB + jr.Index
			if !slices.Equal(jr.Support, in.ref[i]) || jr.Decoder != in.refDecoder {
				rep.mismatch("campaign %s job %d: got %v (%s), reference %v (%s)", cr.id, jr.Index, jr.Support, jr.Decoder, in.ref[i], in.refDecoder)
			}
			if in.recovered(i, jr.Support) {
				cr.rec++
			}
			if j != nil {
				j.add(jr.TraceID)
			}
		}
	}
	if cr.done.IsZero() {
		cr.refused = true // the stream ended without its done event
	}
	return cr
}

func reportCampaignE2E(rep *report, parts []*campResult, setups []float64, rss float64) {
	var camp, first, job dist
	settled, rec, ok, busy, campaigns := 0, 0, 0, 0, 0
	window := 0.0
	for _, res := range parts {
		window += res.t1.Sub(res.t0).Seconds()
		for _, r := range res.runs {
			campaigns++
			rep.attempted += campB
			busy += r.busy
			if r.refused || r.jobs != campB {
				rep.failed += campB - (r.jobs - r.failed)
				camp.add(math.Inf(1)) // a refused campaign misses any limit
				continue
			}
			rep.failed += r.failed
			ok += r.jobs - r.failed
			rec += r.rec
			camp.addDur(r.done.Sub(r.submit))
			first.addDur(r.first.Sub(r.submit))
			for _, e := range r.events {
				job.addDur(e.recv.Sub(r.submit))
				if !e.recv.After(res.t1) {
					settled++
				}
			}
		}
	}
	var perBoot []string
	for _, res := range parts {
		perBoot = append(perBoot, fmt.Sprintf("%.0f", campP50(res)))
	}
	fmt.Fprintf(os.Stderr, "campaign-gaussian: campaign p50 per boot (ms): %s\n", strings.Join(perBoot, " "))
	fmt.Fprintf(os.Stderr, "campaign-gaussian: %d campaigns, %d submits refused with 429 and retried after Retry-After\n", campaigns, busy)
	tq := tailQ(len(job))
	rep.set("setup_s", median(setups), len(setups), "median boot-to-ready: processes, worker health, ring membership, scheme build, a first 8-job campaign (worker install)")
	rep.set("peak_rss_mb", rss, len(parts), "summed VmHWM of frontend and worker, the highest of the boots")
	rep.set("recovery_frac", float64(rec)/float64(max(ok, 1)), ok, "decoded support equals the planted support")
	rep.set("throughput_per_s", float64(settled)/window, settled, "campaign_jobs_per_s: result events received inside the window per second")
	rep.set("latency_p50_ms", camp.q(0.5), len(camp), "campaign_p50_s in ms: admitted submit to the done event")
	rep.info("latency_tail_ms", "ms", job.q(tq), len(job), "per-job result latency "+qName(tq)+": admitted submit to the job's result event")
	rep.info("first_event_p50_ms", "ms", first.q(0.5), len(first), "admitted submit to the first result event")
}

// reportCampaignLayers reports the traced run. Each job's path runs
// from the campaign's submit to its result event: request transfer and
// parse before admission, then the span tree, then SSE delivery.
func reportCampaignLayers(ctx context.Context, rep *report, in *inputs, plain, traced *campResult, trees map[string]*traceTree, skipped int) error {
	l := layerDists{}
	var rows []pathRow
	for _, r := range traced.runs {
		rep.attempted += campB
		if r.refused {
			rep.failed += campB - (r.jobs - r.failed)
		} else {
			rep.failed += r.failed
		}
		for _, e := range r.events {
			t := trees[e.traceID]
			if t == nil {
				continue
			}
			st := t.selfTimes()
			st["http"] = t.Start.Sub(r.submit)
			st["sse"] = e.recv.Sub(t.end())
			for name, d := range st {
				l.add(name, d)
			}
			rows = append(rows, pathRow{client: e.recv.Sub(r.submit), stages: st})
		}
	}
	setPair(rep, "pooledd.http_self_ms", l.get("http"), "campaign submit to the job trace's start (request transfer, parse, before admission)")
	setPair(rep, "pooledd.sse_lag_ms", l.get("sse"), "job trace end to SSE result event receipt")
	setPair(rep, "campaign.admission_ms", l.get("admission"), "self time of span admission")
	setPair(rep, "campaign.tenant_queue_ms", l.get("tenant_queue"), "self time of span tenant_queue")
	reportSpans(rep, l)
	reportPath(rep, rows, []string{"http", "admission", "tenant_queue", "campaign_job", "shard_queue", "wire", "serialize", "network", "worker_queue", "worker_decode", "sse"})
	rep.set("trace.joined", float64(len(trees)), len(trees), fmt.Sprintf("traces fetched from /v1/traces/{id}; %d ids skipped", skipped))
	reportCounters(rep, &traced.win)

	w := &traced.win
	jobs := float64(max(w.jobs, 1))
	dispatched := delta(w.frontBefore, w.frontAfter, "pooled_campaign_dispatched_total")
	rep.set("campaign.requeues_per_job", delta(w.frontBefore, w.frontAfter, "pooled_campaign_requeues_total")/max(dispatched, 1), int(dispatched), "pooled_campaign_requeues_total over dispatched")
	busy := 0
	for _, r := range traced.runs {
		busy += r.busy
	}
	rep.set("campaign.refused_per_campaign", float64(busy)/float64(max(len(traced.runs), 1)), len(traced.runs), "POST /v1/campaigns answered 429 (owning shard saturated) per admitted campaign; the client waits Retry-After and resubmits")
	var perTenant []float64
	total := 0.0
	for _, t := range campTenants {
		d := delta(w.frontBefore, w.frontAfter, "pooled_tenant_decode_seconds_count", `tenant="`+t+`"`)
		perTenant = append(perTenant, d)
		total += d
	}
	for i, t := range campTenants {
		weight := []float64{0.75, 0.25}[i]
		rep.set("campaign.share."+t, perTenant[i]/max(total, 1), int(total), fmt.Sprintf("tenant %s share of decoded jobs; weight share %.2f", t, weight))
	}
	rep.set("wal.appends_per_job", delta(w.frontBefore, w.frontAfter, "pooled_wal_appends_total")/jobs, w.jobs, "pooled_wal_appends_total over settled jobs")
	rep.set("wal.bytes_per_job", delta(w.frontBefore, w.frontAfter, "pooled_wal_bytes_total")/jobs, w.jobs, "pooled_wal_bytes_total over settled jobs")
	fs, fsn := histQuantile(w.frontBefore, w.frontAfter, "pooled_wal_fsync_seconds", 0.5)
	rep.set("wal.fsync_ms.p50", fs*1e3, fsn, "pooled_wal_fsync_seconds histogram delta, interpolated")

	pl, tl := campP50(plain), campP50(traced)
	rep.set("trace.overhead_frac.latency_p50_ms", tl/pl-1, len(plain.runs), fmt.Sprintf("campaign p50 traced %.1fms vs untraced %.1fms", tl, pl))
	pt, tt := campThroughput(plain), campThroughput(traced)
	rep.set("trace.overhead_frac.throughput_per_s", pt/tt-1, len(plain.runs), fmt.Sprintf("jobs/s traced %.1f vs untraced %.1f", tt, pt))

	rep.set("engine.decode_batch_ms_per_signal", ms(in.refTime)/float64(len(in.counts)), len(in.counts), "Engine.DecodeBatchNoisy over the workload inputs (the reference decode)")
	if err := probeLayers(rep, in); err != nil {
		return err
	}
	return probeLoneRTT(ctx, rep, in)
}

func campP50(res *campResult) float64 {
	var d dist
	for _, r := range res.runs {
		if !r.refused {
			d.addDur(r.done.Sub(r.submit))
		}
	}
	return d.q(0.5)
}

func campThroughput(res *campResult) float64 {
	n := 0
	for _, r := range res.runs {
		for _, e := range r.events {
			if !e.recv.After(res.t1) {
				n++
			}
		}
	}
	return float64(n) / res.t1.Sub(res.t0).Seconds()
}
