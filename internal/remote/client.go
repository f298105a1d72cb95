package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/engine"
	"pooleddata/internal/graph"
	"pooleddata/internal/labio"
	"pooleddata/internal/noise"
	"pooleddata/internal/pooling"
	"pooleddata/internal/query"
	"pooleddata/metrics"
	"pooleddata/metrics/trace"
)

// ErrWorkerUnavailable marks jobs that failed because their worker was
// unreachable (or kept failing past the retry budget). It wraps
// engine.ErrShardUnavailable, so the campaign dispatcher can recognize
// the orphaned job and re-dispatch it to a surviving shard without
// importing this package; callers matching ErrWorkerUnavailable itself
// keep working unchanged.
var ErrWorkerUnavailable = fmt.Errorf("remote: worker unavailable: %w", engine.ErrShardUnavailable)

// saturationWindow is how long a worker 429 keeps the client-side
// Saturated signal raised, so admission checks fail fast instead of
// re-probing a queue known to be full.
const saturationWindow = 250 * time.Millisecond

// statsTTL bounds how often Stats() refetches from the worker.
const statsTTL = 500 * time.Millisecond

// Options configures a remote shard client.
type Options struct {
	// Addr is the worker's host:port (or full http:// base URL).
	Addr string
	// QueueDepth bounds jobs buffered client-side awaiting a sender; a
	// full queue returns ErrSaturated (the dispatcher's backpressure
	// signal). 0 means 32.
	QueueDepth int
	// Senders is the number of concurrent request goroutines (sharing
	// one connection-reusing http.Client). 0 means 4.
	Senders int
	// RequestTimeout is the per-request deadline of decode and install
	// calls. 0 means 60s.
	RequestTimeout time.Duration
	// ProbeInterval is the health-probe period. 0 means 2s.
	ProbeInterval time.Duration
	// Retries is how many times a failed request is retried before the
	// job settles with an error. 0 means 2; negative means none.
	Retries int
	// MaxBatch bounds the jobs a sender packs into one frame.
	// 0 means 64; the frame format itself caps batches at 1024.
	MaxBatch int
	// RetryBackoff is the base delay between retries (grows linearly
	// with the attempt). 0 means 50ms.
	RetryBackoff time.Duration
	// MaxSchemes bounds the client-side scheme cache; evicted schemes
	// are re-ensured on demand. 0 means 128.
	MaxSchemes int
	// BuildParallelism bounds goroutines per local design build.
	BuildParallelism int
	// EvictAfter is how many consecutive probe failures fire OnEvict.
	// 0 means 3; negative disables eviction (probes still flip Healthy).
	EvictAfter int
	// OnEvict fires (from the probe goroutine) when EvictAfter
	// consecutive probes have failed — the frontend's hook to pull this
	// worker out of the ring. The client keeps probing afterwards.
	OnEvict func()
	// OnRejoin fires (from the probe goroutine) when a probe succeeds
	// after an eviction — the hook to re-admit the worker to the ring.
	OnRejoin func()
	// Metrics, when set, receives the client's transport metrics:
	// per-stage request timers (serialize/network/worker-queue/
	// worker-decode), retries, mirrored 429s, and probe-state
	// transitions, all labeled by worker addr. Nil records nothing.
	Metrics *metrics.Registry
	// Logger receives structured transport logs (health transitions,
	// exhausted retry budgets). Nil means slog.Default().
	Logger *slog.Logger
}

func (o Options) queueDepth() int {
	if o.QueueDepth <= 0 {
		return 32
	}
	return o.QueueDepth
}

func (o Options) senders() int {
	if o.Senders <= 0 {
		return 4
	}
	return o.Senders
}

func (o Options) requestTimeout() time.Duration {
	if o.RequestTimeout <= 0 {
		return 60 * time.Second
	}
	return o.RequestTimeout
}

func (o Options) probeInterval() time.Duration {
	if o.ProbeInterval <= 0 {
		return 2 * time.Second
	}
	return o.ProbeInterval
}

func (o Options) evictAfter() int {
	if o.EvictAfter == 0 {
		return 3
	}
	if o.EvictAfter < 0 {
		return 0
	}
	return o.EvictAfter
}

func (o Options) retries() int {
	if o.Retries == 0 {
		return 2
	}
	if o.Retries < 0 {
		return 0
	}
	return o.Retries
}

func (o Options) maxBatch() int {
	if o.MaxBatch <= 0 {
		return 64
	}
	if o.MaxBatch > maxBatchJobs {
		return maxBatchJobs
	}
	return o.MaxBatch
}

func (o Options) retryBackoff() time.Duration {
	if o.RetryBackoff <= 0 {
		return 50 * time.Millisecond
	}
	return o.RetryBackoff
}

func (o Options) maxSchemes() int {
	if o.MaxSchemes <= 0 {
		return 128
	}
	return o.MaxSchemes
}

func (o Options) logger() *slog.Logger {
	if o.Logger != nil {
		return o.Logger
	}
	return slog.Default()
}

// schemeState is the client-side record of one scheme: the local graph
// (the frontend is the source of truth) plus whether the worker
// currently has it installed.
type schemeState struct {
	spec   engine.Spec
	id     string
	ready  chan struct{} // build finished (spec schemes built via Scheme)
	scheme *engine.Scheme
	err    error

	mu      sync.Mutex // serializes installs per scheme
	ensured bool
}

func (st *schemeState) unensure() {
	st.mu.Lock()
	st.ensured = false
	st.mu.Unlock()
}

// task is one queued decode awaiting a sender.
type task struct {
	job      engine.Job
	ctx      context.Context
	fut      *engine.Future
	settle   func(engine.Result, error)
	enqueued time.Time

	// attempts counts the retry budget spent so far; only the sender
	// holding the task touches it.
	attempts int
}

// Shard is the client side of the shard protocol: an engine.Shard whose
// decode pipeline lives in a `pooledd -worker` process. It is shaped
// like a miniature engine — a bounded job queue drained by sender
// goroutines — so admission control, backpressure, and Close semantics
// match the local shard it stands in for. Safe for concurrent use.
type Shard struct {
	opts Options
	base string
	hc   *http.Client
	// home is the cluster index stamped on this client's schemes.
	// Atomic: membership changes re-stamp it while scheme builds read
	// it concurrently.
	home atomic.Int64

	jobs chan *task
	wg   sync.WaitGroup

	mu     sync.RWMutex // guards closed vs. in-flight submit sends
	closed bool

	healthy        atomic.Bool
	saturatedUntil atomic.Int64 // unix nanos
	gauges         atomic.Pointer[healthResponse]

	statsMu   sync.Mutex
	statsAt   time.Time
	statsLast engine.Stats

	// Client-side counters merged into Stats(): outcomes the worker
	// never saw (local rejections, transport failures, cancellations).
	jobsRejected    atomic.Uint64
	jobsFailed      atomic.Uint64
	jobsCanceled    atomic.Uint64
	signalsMeasured atomic.Uint64

	smu      sync.Mutex
	bySpec   map[engine.Spec]*schemeState
	byScheme map[*engine.Scheme]*schemeState
	order    []*schemeState
	instance int64
	adhocSeq atomic.Uint64

	stop      chan struct{}
	probeDone chan struct{}

	// ack is closed, and replaced, each time a frame comes back with jobs
	// the worker admitted: the worker just freed that many slots. A sender
	// whose frame the worker refused entirely waits on it before
	// re-sending.
	ackMu sync.Mutex
	ack   chan struct{}

	// bufPool recycles frame buffers, so steady-state decodes stop
	// allocating per job.
	bufPool sync.Pool

	// Transport observability: per-stage request timers and transport
	// counters, no-ops when Options.Metrics is nil.
	log          *slog.Logger
	mStage       *metrics.HistogramVec
	mRetries     *metrics.Counter
	mSaturated   *metrics.Counter
	mTransitions *metrics.CounterVec
	mHealthy     *metrics.Gauge
	mBatchJobs   *metrics.Histogram
}

var _ engine.Shard = (*Shard)(nil)
var _ engine.HomeSetter = (*Shard)(nil)

// New starts a shard client against a worker address. The client
// assumes the worker is reachable until the first probe says otherwise;
// release its senders and probe with Close.
func New(opts Options) *Shard {
	base := opts.Addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	s := &Shard{
		opts: opts,
		base: strings.TrimRight(base, "/"),
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: opts.senders() + 2,
			IdleConnTimeout:     90 * time.Second,
		}},
		jobs:      make(chan *task, opts.queueDepth()),
		ack:       make(chan struct{}),
		bufPool:   sync.Pool{New: func() any { return new(bytes.Buffer) }},
		bySpec:    make(map[engine.Spec]*schemeState),
		byScheme:  make(map[*engine.Scheme]*schemeState),
		instance:  time.Now().UnixNano(),
		stop:      make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	s.log = opts.logger().With("worker", opts.Addr)
	reg := opts.Metrics
	s.mStage = reg.Histogram("pooled_remote_request_seconds",
		"Remote decode time by stage: serialize, network, worker_queue, worker_decode, total.",
		nil, "addr", "stage")
	s.mRetries = reg.Counter("pooled_remote_retries_total",
		"Decode attempts retried after a transport or worker failure.", "addr").With(opts.Addr)
	s.mSaturated = reg.Counter("pooled_remote_saturated_total",
		"Worker 429 responses mirrored into client-side backpressure.", "addr").With(opts.Addr)
	s.mTransitions = reg.Counter("pooled_remote_worker_health_transitions_total",
		"Probe-state flips, labeled by the state transitioned to.", "addr", "to")
	s.mHealthy = reg.Gauge("pooled_remote_worker_healthy",
		"1 while the worker's probe state is healthy.", "addr").With(opts.Addr)
	s.mBatchJobs = reg.Histogram("pooled_remote_batch_jobs",
		"Jobs carried by each binary decode frame.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256}, "addr").With(opts.Addr)
	s.healthy.Store(true)
	s.mHealthy.Set(1)
	for i := 0; i < opts.senders(); i++ {
		s.wg.Add(1)
		go s.sender()
	}
	go s.probeLoop()
	return s
}

// SetHome assigns the cluster index stamped on this client's schemes
// (cluster assembly and every membership change re-stamp it).
func (s *Shard) SetHome(i int) { s.home.Store(int64(i)) }

// Addr reports the worker address this shard fronts.
func (s *Shard) Addr() string { return s.opts.Addr }

// Healthy reports the probe state: false after a dead-worker failure or
// failed probe, true again once a probe succeeds.
func (s *Shard) Healthy() bool { return s.healthy.Load() }

// setHealthy records a probe-state observation; an actual flip emits a
// structured log and a worker_health_transitions_total increment with
// the worker addr, so a dead (or recovered) worker is visible in logs
// and dashboards, not just in job errors. cause names what flipped it.
func (s *Shard) setHealthy(h bool, cause string) {
	if !s.healthy.CompareAndSwap(!h, h) {
		return // no transition
	}
	to, v := "healthy", 1.0
	if !h {
		to, v = "unhealthy", 0.0
	}
	s.mTransitions.With(s.opts.Addr, to).Inc()
	s.mHealthy.Set(v)
	s.log.Info("worker health transition", "to", to, "cause", cause)
}

// Close stops accepting jobs, lets the senders drain the queue (jobs
// still settle — against the worker if it is up, with errors if not),
// and stops the health probe.
func (s *Shard) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.jobs)
	s.mu.Unlock()
	close(s.stop)
	s.wg.Wait()
	<-s.probeDone
	// Nothing probes this worker anymore, so its healthy gauge would
	// otherwise export the last observed value forever — misleading for a
	// drained worker. Zero it after the probe and senders have made their
	// final writes.
	s.mHealthy.Set(0)
	s.hc.CloseIdleConnections()
}

// specID is the worker-side registry key of a spec scheme: stable
// across frontends and restarts, so re-ensures are idempotent.
func specID(spec engine.Spec) string {
	return fmt.Sprintf("%s|%d|%d|%d", spec.Design, spec.N, spec.M, spec.Seed)
}

func (s *Shard) adhocID() string {
	return fmt.Sprintf("adhoc-%d-%d", s.instance, s.adhocSeq.Add(1))
}

// Scheme builds the design locally (the frontend serves design CSVs and
// validates jobs against the graph) and lazily ships it to the worker
// before the first decode. Builds dedupe per spec like the engine
// cache; repeat calls return the identical pointer.
func (s *Shard) Scheme(des pooling.Design, n, m int, seed uint64) (*engine.Scheme, error) {
	if des == nil {
		des = pooling.RandomRegular{}
	}
	spec := engine.SpecFor(des, n, m, seed)
	s.smu.Lock()
	if st, ok := s.bySpec[spec]; ok {
		s.smu.Unlock()
		<-st.ready
		return st.scheme, st.err
	}
	st := &schemeState{spec: spec, id: specID(spec), ready: make(chan struct{})}
	s.bySpec[spec] = st
	s.smu.Unlock()

	g, err := des.Build(n, m, pooling.BuildOptions{Seed: seed, Parallelism: s.opts.BuildParallelism})
	s.smu.Lock()
	if err != nil {
		st.err = err
		if cur, ok := s.bySpec[spec]; ok && cur == st {
			delete(s.bySpec, spec)
		}
	} else {
		st.scheme = engine.NewSchemeAt(spec, g, int(s.home.Load()))
		s.byScheme[st.scheme] = st
		s.order = append(s.order, st)
		s.evictLocked()
	}
	s.smu.Unlock()
	close(st.ready)
	return st.scheme, st.err
}

// SchemeFromGraph wraps an ad-hoc design; the graph ships to the worker
// before its first decode under its content-hash id (the scheme's ring
// routing key), so re-uploads and re-ensures after failover are
// idempotent on the worker's registry.
func (s *Shard) SchemeFromGraph(g *graph.Bipartite) *engine.Scheme {
	sc := engine.NewSchemeAt(engine.Spec{}, g, int(s.home.Load()))
	id := sc.RouteKey()
	if id == "" {
		id = s.adhocID()
	}
	st := &schemeState{id: id, ready: closedChan(), scheme: sc}
	s.smu.Lock()
	s.byScheme[sc] = st
	s.order = append(s.order, st)
	s.evictLocked()
	s.smu.Unlock()
	return sc
}

// InstallScheme registers a prebuilt design under spec (warm start);
// the worker receives it lazily before the first decode.
func (s *Shard) InstallScheme(spec engine.Spec, g *graph.Bipartite) *engine.Scheme {
	sc := engine.NewSchemeAt(spec, g, int(s.home.Load()))
	st := &schemeState{spec: spec, id: specID(spec), ready: closedChan(), scheme: sc}
	s.smu.Lock()
	s.bySpec[spec] = st
	s.byScheme[sc] = st
	s.order = append(s.order, st)
	s.evictLocked()
	s.smu.Unlock()
	return sc
}

func closedChan() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

// evictLocked trims the client scheme cache; evicted schemes still work
// if a caller kept one (stateFor rebuilds their record on demand, and
// the worker is re-ensured idempotently).
func (s *Shard) evictLocked() {
	for len(s.order) > s.opts.maxSchemes() {
		victim := s.order[0]
		s.order = s.order[1:]
		if cur, ok := s.bySpec[victim.spec]; ok && cur == victim {
			delete(s.bySpec, victim.spec)
		}
		if victim.scheme != nil {
			delete(s.byScheme, victim.scheme)
		}
	}
}

// stateFor returns (rebuilding if evicted) the record of a scheme a job
// carries. Schemes created by other shards or standalone engines get a
// fresh record keyed by their spec (or a new ad-hoc id), so any scheme
// with a graph can decode remotely.
func (s *Shard) stateFor(sc *engine.Scheme) *schemeState {
	s.smu.Lock()
	defer s.smu.Unlock()
	if st, ok := s.byScheme[sc]; ok {
		return st
	}
	id := sc.RouteKey() // spec key or ad-hoc content hash
	if sc.Spec != (engine.Spec{}) {
		id = specID(sc.Spec)
	} else if id == "" {
		id = s.adhocID()
	}
	st := &schemeState{spec: sc.Spec, id: id, ready: closedChan(), scheme: sc}
	s.byScheme[sc] = st
	if sc.Spec != (engine.Spec{}) {
		s.bySpec[sc.Spec] = st
	}
	s.order = append(s.order, st)
	s.evictLocked()
	return st
}

// MeasureBatch runs on the frontend — measurement is simulation-side
// work against the locally-held graph, not something to ship counts
// back and forth for.
func (s *Shard) MeasureBatch(sc *engine.Scheme, signals []*bitvec.Vector, nm noise.Model) [][]int64 {
	nm = nm.Canon()
	var ys [][]int64
	if nm.IsExact() {
		ys = query.ExecuteBatch(sc.G, signals, runtime.GOMAXPROCS(0))
	} else {
		ys = query.ExecuteBatchNoisy(sc.G, signals, runtime.GOMAXPROCS(0), nm, nm.SignalSeeds(len(signals)))
	}
	s.signalsMeasured.Add(uint64(len(signals)))
	return ys
}

type submitMode int

const (
	modeBlock submitMode = iota
	modeTry
	modeOffer
)

// Submit enqueues the job client-side, blocking while the queue is
// full; a sender ships it to the worker and settles the Future.
func (s *Shard) Submit(ctx context.Context, job engine.Job) (*engine.Future, error) {
	return s.submit(ctx, job, modeBlock)
}

// TrySubmit is Submit with admission control: a full client queue (or a
// worker that just answered 429) returns ErrSaturated and counts the
// rejection.
func (s *Shard) TrySubmit(ctx context.Context, job engine.Job) (*engine.Future, error) {
	return s.submit(ctx, job, modeTry)
}

// Offer is TrySubmit without the rejection accounting — the campaign
// dispatcher's cooperative-backpressure path.
func (s *Shard) Offer(ctx context.Context, job engine.Job) (*engine.Future, error) {
	return s.submit(ctx, job, modeOffer)
}

func (s *Shard) submit(ctx context.Context, job engine.Job, mode submitMode) (*engine.Future, error) {
	if err := engine.ValidateJob(job); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// A dead worker fails jobs promptly instead of queueing toward a
	// timeout: the dispatcher settles them and campaigns terminate.
	if !s.healthy.Load() {
		return nil, s.unavailableErr(nil)
	}
	if mode != modeBlock && s.saturatedNow() {
		if mode == modeTry {
			s.jobsRejected.Add(1)
		}
		return nil, engine.ErrSaturated
	}
	fut, settle := engine.NewFuture(job)
	t := &task{job: job, ctx: ctx, fut: fut, settle: settle, enqueued: time.Now()}

	// Same locking discipline as engine.submit: the read lock spans the
	// send so Close never closes the channel under a sender.
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, engine.ErrClosed
	}
	if mode != modeBlock {
		select {
		case s.jobs <- t:
			return fut, nil
		default:
			if mode == modeTry {
				s.jobsRejected.Add(1)
			}
			return nil, engine.ErrSaturated
		}
	}
	select {
	case s.jobs <- t:
		return fut, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Saturated reports client-queue fullness, a recent worker 429, or an
// unhealthy worker — the batch admission signal the frontend turns into
// 429 + Retry-After.
func (s *Shard) Saturated() bool {
	return len(s.jobs) == cap(s.jobs) || s.saturatedNow() || !s.healthy.Load()
}

// NoteRejected records admission rejections decided by a caller.
func (s *Shard) NoteRejected(n int) { s.jobsRejected.Add(uint64(n)) }

func (s *Shard) saturatedNow() bool {
	return s.saturatedUntil.Load() > time.Now().UnixNano()
}

func (s *Shard) markSaturated() {
	s.saturatedUntil.Store(time.Now().Add(saturationWindow).UnixNano())
}

// QueueDepth combines jobs waiting client-side with the worker's last
// reported queue depth.
func (s *Shard) QueueDepth() int { return len(s.jobs) + s.lastGauges().QueueDepth }

// QueueCapacity combines the client queue bound with the worker's.
func (s *Shard) QueueCapacity() int { return cap(s.jobs) + s.lastGauges().QueueCapacity }

// Workers reports the worker's decode pool size (0 before the first
// probe).
func (s *Shard) Workers() int { return s.lastGauges().Workers }

// CachedSchemes reports the worker's resident scheme count.
func (s *Shard) CachedSchemes() int { return s.lastGauges().CachedSchemes }

func (s *Shard) lastGauges() healthResponse {
	if h := s.gauges.Load(); h != nil {
		return *h
	}
	return healthResponse{}
}

// Stats fetches the worker's counters (cached briefly) and folds in the
// client-side outcomes the worker never saw: local admission
// rejections, transport-failed jobs, cancellations, and locally
// measured signals.
func (s *Shard) Stats() engine.Stats {
	s.statsMu.Lock()
	if time.Since(s.statsAt) > statsTTL && s.healthy.Load() {
		if st, err := s.fetchStats(); err == nil {
			s.statsLast = st
			s.statsAt = time.Now()
		}
	}
	st := s.statsLast
	s.statsMu.Unlock()
	st.JobsRejected += s.jobsRejected.Load()
	st.JobsFailed += s.jobsFailed.Load()
	st.JobsCanceled += s.jobsCanceled.Load()
	st.SignalsMeasured += s.signalsMeasured.Load()
	return st
}

func (s *Shard) fetchStats() (engine.Stats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+statsPath, nil)
	if err != nil {
		return engine.Stats{}, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return engine.Stats{}, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return engine.Stats{}, fmt.Errorf("remote: stats status %d", resp.StatusCode)
	}
	var st engine.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return engine.Stats{}, err
	}
	return st, nil
}

func (s *Shard) unavailableErr(cause error) error {
	if cause != nil {
		return fmt.Errorf("%w: %s: %v", ErrWorkerUnavailable, s.opts.Addr, cause)
	}
	return fmt.Errorf("%w: %s", ErrWorkerUnavailable, s.opts.Addr)
}

// sender drains the client queue until Close. Every decode rides a
// binary frame, a lone job included: the sender takes one job, tops the
// frame up with whatever else is already queued, and sends it at once.
// Frames in flight are what let the queue build up, so no timer is
// needed.
//
// Jobs a frame must re-send stay parked with the sender, which takes
// nothing new from the queue until they have settled. Re-sends are ack
// clocked: the worker answers a frame only after its admitted jobs have
// decoded, so the admitted count (credit) is the number of worker slots
// this sender just freed, and the next frame re-sends at most that many
// parked jobs, at least one.
func (s *Shard) sender() {
	defer s.wg.Done()
	var parked []*task
	credit := 0
	for {
		var frame []*task
		if len(parked) == 0 {
			t, ok := <-s.jobs
			if !ok {
				return
			}
			frame = s.fill([]*task{t})
		} else {
			n := min(max(credit, 1), len(parked))
			frame, parked = parked[:n:n], parked[n:]
		}
		var again []*task
		again, credit = s.sendFrame(frame)
		parked = append(again, parked...)
	}
}

// fill tops a frame up with the jobs already queued, up to MaxBatch,
// without waiting for more.
func (s *Shard) fill(batch []*task) []*task {
	for len(batch) < s.opts.maxBatch() {
		select {
		case t, ok := <-s.jobs:
			if !ok {
				return batch
			}
			batch = append(batch, t)
		default:
			return batch
		}
	}
	return batch
}

// getBuf leases a request-body buffer from the pool.
func (s *Shard) getBuf() *bytes.Buffer {
	b := s.bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func (s *Shard) putBuf(b *bytes.Buffer) { s.bufPool.Put(b) }

// sendFrame ships one frame and settles each job by its verdict. It
// returns the jobs to re-send and the credit for the next frame: the
// jobs the worker admitted, or the whole frame after a frame-level
// failure.
func (s *Shard) sendFrame(batch []*task) ([]*task, int) {
	live := batch[:0]
	for _, t := range batch {
		if t.ctx.Err() != nil {
			s.cancelTask(t)
			continue
		}
		live = append(live, t)
	}
	if len(live) == 0 {
		return nil, 0
	}

	// Frame-mates with live contexts still want the result, so installs
	// (like the request below) are not tied to any one job's context.
	states := make([]*schemeState, len(live))
	for i, t := range live {
		states[i] = s.stateFor(t.job.Scheme)
		if err := s.ensure(states[i]); err != nil {
			return s.retryAll(live, err), len(live)
		}
	}

	buf := s.getBuf()
	defer s.putBuf(buf)
	serializeStart := time.Now()
	jobs := make([]batchJob, len(live))
	for i, t := range live {
		jobs[i] = batchJob{
			Scheme: states[i].id,
			Noise:  t.job.Noise.Canon().String(),
			Trace:  t.job.TraceID,
			K:      t.job.K,
			Y:      t.job.Y,
		}
		if t.job.Dec != nil {
			jobs[i].Decoder = t.job.Dec.Name()
		}
	}
	buf.Write(appendBatchRequest(buf.AvailableBuffer(), jobs))
	serialize := time.Since(serializeStart)
	s.mBatchJobs.Observe(float64(len(live)))

	// Taken before the request, so an ack that lands while this frame is
	// in flight still wakes the sender if the worker refuses it.
	ack := s.nextAck()
	reqStart := time.Now()
	rep, err := s.postFrame(live, buf.Bytes())
	switch {
	case err != nil:
		return s.retryAll(live, err), len(live)
	case rep.status == http.StatusBadRequest:
		// The worker refused the frame itself — a frame version it does
		// not speak, say. Re-sending the same bytes cannot help, and
		// there is no other path to fall back to.
		for _, t := range live {
			s.failTask(t, fmt.Errorf("remote: worker %s refused the frame: %s", s.opts.Addr, rep.errMsg))
		}
		return nil, 0
	case rep.status != http.StatusOK:
		return s.retryAll(live, fmt.Errorf("remote: worker %s: status %d: %s", s.opts.Addr, rep.status, rep.errMsg)), len(live)
	case len(rep.results) != len(live):
		return s.retryAll(live, fmt.Errorf("remote: worker %s answered %d of %d jobs", s.opts.Addr, len(rep.results), len(live))), len(live)
	}
	s.setHealthy(true, "decode frame answered")

	// Stage accounting is per job, so every stage's observation count
	// equals the job count however jobs were packed into frames. The
	// marshal cost is shared evenly; a job's network stage is the round
	// trip minus its own worker time.
	serShare := serialize / time.Duration(len(live))
	admitted := 0
	var again, saturated []*task
	for i := range rep.results {
		r, t := &rep.results[i], live[i]
		switch r.Status {
		case batchOK:
			admitted++
			network := max(rep.roundTrip-time.Duration(r.QueueNS+r.DecodeNS), 0)
			clientWait := serializeStart.Sub(t.enqueued)
			s.mStage.With(s.opts.Addr, "serialize").ObserveDuration(serShare)
			s.mStage.With(s.opts.Addr, "network").ObserveDuration(network)
			s.mStage.With(s.opts.Addr, "worker_queue").ObserveDuration(time.Duration(r.QueueNS))
			s.mStage.With(s.opts.Addr, "worker_decode").ObserveDuration(time.Duration(r.DecodeNS))
			s.mStage.With(s.opts.Addr, "total").ObserveDuration(serShare + rep.roundTrip)
			t.job.Trace.Span("shard_queue", trace.TierFrontend, 0, t.enqueued, clientWait)
			addWireSpans(t.job.Trace, serializeStart, serShare, reqStart, rep.roundTrip, network, r.QueueNS, r.DecodeNS)
			t.settle(engine.Result{
				Support: r.Support,
				Decoder: r.Decoder,
				Stats: engine.JobStats{
					QueueWait:  clientWait + time.Duration(r.QueueNS),
					DecodeTime: time.Duration(r.DecodeNS),
					Residual:   r.Residual,
					Consistent: r.Consistent,
				},
			}, nil)
		case batchDecodeErr:
			admitted++
			// Deterministic failures: retrying cannot change the answer.
			s.failTask(t, fmt.Errorf("remote: worker %s: %s", s.opts.Addr, r.Err))
		case batchBadRequest:
			s.failTask(t, fmt.Errorf("remote: worker %s: %s", s.opts.Addr, r.Err))
		case batchSaturated:
			s.markSaturated()
			s.mSaturated.Inc()
			saturated = append(saturated, t)
		case batchNotFound:
			// The worker lost the scheme (restart or registry eviction):
			// the next frame re-installs it.
			states[i].unensure()
			fallthrough
		default: // batchUnavailable: transient on a live worker
			again = append(again, s.spend([]*task{t}, fmt.Errorf("remote: worker %s: %s", s.opts.Addr, r.Err), false)...)
		}
	}
	if admitted > 0 {
		s.signalAck()
	} else if len(saturated) > 0 && !s.awaitAck(ack, saturated) {
		// Refused entirely, and no frame of this client freed a slot
		// within the backoff: the worker is stuck, not busy.
		saturated = s.spend(saturated, fmt.Errorf("remote: worker %s: %w", s.opts.Addr, engine.ErrSaturated), false)
	}
	return append(again, saturated...), admitted
}

// nextAck returns the channel the next admitting frame closes.
func (s *Shard) nextAck() <-chan struct{} {
	s.ackMu.Lock()
	defer s.ackMu.Unlock()
	return s.ack
}

// signalAck wakes the senders waiting in awaitAck.
func (s *Shard) signalAck() {
	s.ackMu.Lock()
	close(s.ack)
	s.ack = make(chan struct{})
	s.ackMu.Unlock()
}

// awaitAck pauses a sender whose frame the worker refused entirely until
// a frame of this client comes back with admitted jobs, or the backoff
// for the jobs' next attempt runs out. It reports whether the ack came.
func (s *Shard) awaitAck(ack <-chan struct{}, ts []*task) bool {
	timer := time.NewTimer(s.backoff(ts, 1))
	defer timer.Stop()
	select {
	case <-ack:
		return true
	case <-timer.C:
		return false
	}
}

// retryAll charges a frame-wide failure (install, transport, status, or
// unparseable reply) to every job of the frame and returns the jobs left
// to re-send after the backoff.
func (s *Shard) retryAll(live []*task, err error) []*task {
	again := s.spend(live, err, true)
	if len(again) > 0 {
		time.Sleep(s.backoff(again, 0))
	}
	return again
}

// spend charges one attempt to each job's budget and returns the jobs
// that may be re-sent. Canceled jobs settle instead. Past the budget a
// job settles: a saturated worker's jobs keep ErrSaturated visible to
// errors.Is; the rest fail with ErrWorkerUnavailable, and when the
// worker was unreachable (down) the shard is marked unhealthy so
// campaigns re-dispatch elsewhere.
func (s *Shard) spend(ts []*task, err error, down bool) []*task {
	var again []*task
	for _, t := range ts {
		if t.ctx.Err() != nil {
			s.cancelTask(t)
			continue
		}
		t.attempts++
		if t.attempts <= s.opts.retries() {
			s.mRetries.Inc()
			again = append(again, t)
			continue
		}
		fail := s.unavailableErr(err)
		switch {
		case errors.Is(err, engine.ErrSaturated):
			fail = fmt.Errorf("remote: worker %s: %w after %d attempts", s.opts.Addr, engine.ErrSaturated, t.attempts)
		case down:
			s.setHealthy(false, "retry budget exhausted: "+err.Error())
			s.log.Warn("decode retry budget exhausted", "trace_id", t.job.TraceID, "attempts", t.attempts, "err", err)
		}
		s.failTask(t, fail)
	}
	return again
}

func (s *Shard) failTask(t *task, err error) {
	s.jobsFailed.Add(1)
	t.settle(engine.Result{Stats: engine.JobStats{QueueWait: time.Since(t.enqueued)}}, err)
}

func (s *Shard) cancelTask(t *task) {
	s.jobsCanceled.Add(1)
	t.settle(engine.Result{Stats: engine.JobStats{QueueWait: time.Since(t.enqueued)}}, t.ctx.Err())
}

// backoff is the pause before re-sending ts: RetryBackoff times the
// highest attempt among them, counted ahead attempts on, at least one.
func (s *Shard) backoff(ts []*task, ahead int) time.Duration {
	n := 1
	for _, t := range ts {
		n = max(n, t.attempts+ahead)
	}
	return s.opts.retryBackoff() * time.Duration(n)
}

// frameReply is one frame round trip's outcome: the HTTP status, the
// parsed results (200) or the worker's error message (otherwise), and
// the client-measured round trip.
type frameReply struct {
	status    int
	results   []batchResult
	errMsg    string
	roundTrip time.Duration
}

// postFrame runs one frame round trip. Frame-mates' contexts are
// independent, so the request is abandoned only once every job in the
// frame is canceled; the request deadline bounds it otherwise. err is
// transport-level or an unparseable 200 body.
func (s *Shard) postFrame(live []*task, payload []byte) (frameReply, error) {
	ctx, cancel := context.WithTimeout(context.Background(), s.opts.requestTimeout())
	defer cancel()
	var left atomic.Int64
	left.Store(int64(len(live)))
	for _, t := range live {
		stop := context.AfterFunc(t.ctx, func() {
			if left.Add(-1) == 0 {
				cancel()
			}
		})
		defer stop()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+decodeBatchPath, bytes.NewReader(payload))
	if err != nil {
		return frameReply{}, err
	}
	req.Header.Set("Content-Type", batchMediaType)
	start := time.Now()
	resp, err := s.hc.Do(req)
	if err != nil {
		return frameReply{}, err
	}
	defer drainClose(resp.Body)
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return frameReply{}, err
	}
	rep := frameReply{status: resp.StatusCode, roundTrip: time.Since(start)}
	if rep.status != http.StatusOK {
		var eb errorBody
		if json.Unmarshal(body, &eb) != nil || eb.Error == "" {
			eb.Error = http.StatusText(rep.status)
		}
		rep.errMsg = eb.Error
		return rep, nil
	}
	if rep.results, err = parseBatchResponse(body); err != nil {
		return frameReply{}, err
	}
	return rep, nil
}

// addWireSpans appends one job's wire-stage span subtree to its trace:
// a "wire" parent covering marshal + round trip, with serialize and
// network children measured on this side of the hop, and worker_queue /
// worker_decode children synthesized from the durations the worker
// reported back (QueueNS/DecodeNS in the reply frame). The worker spans are laid at the tail of the
// request window, so the tree nests sensibly without any cross-machine
// clock sync. Nil-safe via the builder.
func addWireSpans(tb *trace.Builder, serializeStart time.Time, serialize time.Duration, reqStart time.Time, roundTrip, network time.Duration, queueNS, decodeNS int64) {
	if tb == nil {
		return
	}
	wireDur := reqStart.Add(roundTrip).Sub(serializeStart)
	wire := tb.Span("wire", trace.TierFrontend, 0, serializeStart, wireDur)
	tb.Span("serialize", trace.TierFrontend, wire, serializeStart, serialize)
	tb.Span("network", trace.TierFrontend, wire, reqStart, network)
	workerDur := time.Duration(queueNS + decodeNS)
	workerStart := reqStart.Add(roundTrip - workerDur)
	if workerStart.Before(reqStart) {
		workerStart = reqStart
	}
	tb.Span("worker_queue", trace.TierWorker, wire, workerStart, time.Duration(queueNS))
	tb.Span("worker_decode", trace.TierWorker, wire, workerStart.Add(time.Duration(queueNS)), time.Duration(decodeNS))
}

// ensure ships the scheme's design CSV to the worker if this client
// hasn't (or a 404 told it the worker lost it). Serialized per scheme;
// idempotent on the worker.
func (s *Shard) ensure(st *schemeState) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.ensured {
		return nil
	}
	var buf bytes.Buffer
	if err := labio.WriteDesign(&buf, st.scheme.G); err != nil {
		return fmt.Errorf("remote: serialize design: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.opts.requestTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, s.base+schemePathPrefix+url.PathEscape(st.id), &buf)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "text/csv")
	resp, err := s.hc.Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("remote: install scheme on %s: status %d", s.opts.Addr, resp.StatusCode)
	}
	st.ensured = true
	return nil
}

func (s *Shard) probeLoop() {
	defer close(s.probeDone)
	interval := s.opts.probeInterval()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	// Eviction state lives entirely in this goroutine: OnEvict/OnRejoin
	// fire from here and nowhere else, so the frontend's hooks need no
	// synchronization of their own.
	failures, evicted := 0, false
	step := func() {
		if s.probe() {
			failures = 0
			if evicted {
				evicted = false
				s.log.Info("worker rejoining after eviction")
				if s.opts.OnRejoin != nil {
					s.opts.OnRejoin()
				}
			}
			return
		}
		failures++
		if n := s.opts.evictAfter(); !evicted && n > 0 && failures >= n {
			evicted = true
			s.log.Warn("worker evicted after consecutive probe failures", "failures", failures)
			if s.opts.OnEvict != nil {
				s.opts.OnEvict()
			}
		}
	}
	step()
	for {
		select {
		case <-tick.C:
			step()
		case <-s.stop:
			return
		}
	}
}

func (s *Shard) probe() bool {
	// A fixed timeout rather than the (possibly very short) probe
	// interval: probes run sequentially in the loop, so a slow one just
	// delays the next tick instead of overlapping it — and a tight
	// interval must not misread a slow-but-alive worker as dead.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+healthPath, nil)
	if err != nil {
		s.setHealthy(false, "probe request: "+err.Error())
		return false
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		s.setHealthy(false, "probe: "+err.Error())
		return false
	}
	defer drainClose(resp.Body)
	var h healthResponse
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&h) != nil || !h.OK {
		s.setHealthy(false, fmt.Sprintf("probe status %d", resp.StatusCode))
		return false
	}
	s.gauges.Store(&h)
	s.setHealthy(true, "probe ok")
	return true
}

// drainClose discards the rest of a response body and closes it, so the
// underlying connection is reusable.
func drainClose(rc io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(rc, 64<<10))
	rc.Close()
}
