package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"dlion/internal/nn"
	"dlion/internal/obs"
	"dlion/internal/tensor"
)

// Config assembles an inference server.
type Config struct {
	// Registry supplies model versions (required).
	Registry *Registry

	// MaxBatch is the largest micro-batch a runner coalesces (default 16).
	// 1 disables batching: every request runs its own forward pass.
	MaxBatch int

	// Ignored: a runner never waits for a batch to fill, it takes what is
	// already queued (see collect). The field remains only because the
	// repository benchmark still sets it; a change to that benchmark drops
	// the setting, and then the field.
	MaxDelay time.Duration

	// QueueDepth bounds the admission queue (default 256). When it is
	// full the server sheds new requests with 429 instead of queueing
	// them into unbounded latency.
	QueueDepth int

	// Runners is the number of concurrent batch runners (default 1).
	// Each runner owns a private model replica restored from the current
	// version and an inference view of it (nn.View) whose Dense weights are
	// packed once per version, so runners never contend on layer
	// activation buffers and a batch-1 forward reads no weight in its
	// training layout. For finite weights its logits are bit-identical to
	// Model.Forward's.
	Runners int

	// Metrics, when non-nil, receives the serve.* counters, gauges, and
	// latency/batch histograms (METRICS.md). Nil runs uninstrumented.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxBatch < 1 {
		c.MaxBatch = 16
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 256
	}
	if c.Runners < 1 {
		c.Runners = 1
	}
	return c
}

// request is one admitted sample waiting for a runner.
type request struct {
	x    []float32
	enq  time.Time
	resp chan result // buffered size 1: runners never block on delivery
}

// call is one /predict call's state: the body it read, the samples parsed
// from it and one request record per sample. Calls are pooled, and a call
// goes back to its pool only once its handler has received an answer for
// every request it admitted. On the paths that return with requests still
// queued (shed, draining, a runner's error) it is left to the GC: those
// requests alias its records and floats.
type call struct {
	body    bytes.Buffer
	p       parser
	samples [][]float32
	reqs    []request // never shortened: each record keeps its channel
	preds   []Prediction
	out     bytes.Buffer
}

// maxPooledBody bounds the bodies whose calls are pooled, so that a burst of
// large bodies does not keep their buffers alive.
const maxPooledBody = 1 << 20

// requests returns n request records, each with its answer channel.
func (c *call) requests(n int) []request {
	for len(c.reqs) < n {
		c.reqs = append(c.reqs, request{resp: make(chan result, 1)})
	}
	return c.reqs[:n]
}

type result struct {
	seq    int64
	source string
	class  int
	probs  []float32
	err    error
}

// errNoModel is returned to admitted requests when no version has been
// published yet.
var errNoModel = errors.New("serve: no model version published")

// Server batches predict requests and runs them through the registry's
// current model version. It implements http.Handler; use NewServer +
// (*Server).Shutdown directly for in-process serving, or Listen for a
// TCP-bound server.
type Server struct {
	cfg     Config
	inLen   int // features per sample: channels*height*width
	classes int
	mux     *http.ServeMux

	queue chan *request
	calls sync.Pool // of *call

	// admitMu guards the draining flag against in-flight enqueues: Shutdown
	// takes the write lock to flip draining, which cannot succeed while any
	// handler holds the read lock mid-enqueue — after that, closing the
	// queue is safe and every admitted request is still answered.
	admitMu  sync.RWMutex
	draining bool

	runners  sync.WaitGroup
	shutOnce sync.Once
	shutErr  error

	// Metric handles (nil-safe no-ops without a registry).
	hLatency *obs.Histogram // admission → response, seconds
	hBatch   *obs.Histogram // executed batch sizes
	requests *obs.Counter
	answered *obs.Counter
	sheds    *obs.Counter
	batches  *obs.Counter
	qDepth   *obs.Gauge
}

// NewServer builds the server and starts its runners.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("serve: nil registry")
	}
	cfg = cfg.withDefaults()
	spec := cfg.Registry.Spec()
	s := &Server{
		cfg:     cfg,
		inLen:   spec.Channels * spec.Height * spec.Width,
		classes: spec.Classes,
		queue:   make(chan *request, cfg.QueueDepth),

		hLatency: cfg.Metrics.Histogram("serve.latency"),
		hBatch:   cfg.Metrics.Histogram("serve.batch_fill"),
		requests: cfg.Metrics.Counter("serve.requests"),
		answered: cfg.Metrics.Counter("serve.answered"),
		sheds:    cfg.Metrics.Counter("serve.sheds"),
		batches:  cfg.Metrics.Counter("serve.batches"),
		qDepth:   cfg.Metrics.Gauge("serve.queue_depth"),
	}
	if s.inLen <= 0 || s.classes <= 0 {
		return nil, fmt.Errorf("serve: spec has no input geometry or classes")
	}
	if cfg.Metrics != nil {
		cfg.Registry.SetMetrics(cfg.Metrics)
	}
	s.calls.New = func() any { return new(call) }
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/predict", s.handlePredict)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/modelz", s.handleModelz)
	s.mux.HandleFunc("/statsz", s.handleStatsz)
	for i := 0; i < cfg.Runners; i++ {
		s.runners.Add(1)
		go s.runner()
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Shutdown drains the server: new requests are refused with 503, every
// already-admitted request is answered, and the runners exit once the
// queue is empty. It returns ctx.Err() if draining outlives ctx (runners
// keep draining regardless). Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutOnce.Do(func() {
		s.admitMu.Lock()
		s.draining = true
		s.admitMu.Unlock()
		close(s.queue) // no enqueue can be in flight past the Lock above
		done := make(chan struct{})
		go func() {
			s.runners.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			s.shutErr = ctx.Err()
		}
	})
	return s.shutErr
}

// enqueue admits one sample into the batching queue, or reports shed=true
// when the queue is full and drain=true when the server is shutting down.
func (s *Server) enqueue(req *request) (shed, draining bool) {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining {
		return false, true
	}
	select {
	case s.queue <- req:
		s.qDepth.Set(int64(len(s.queue)))
		return false, false
	default:
		return true, false
	}
}

// --- HTTP API ---

// PredictRequest is the /predict request body. Each input is one sample's
// flattened feature vector of length channels*height*width. The server parses
// it with its own parser (decode.go), which accepts exactly what
// encoding/json decodes into this type.
type PredictRequest struct {
	Inputs [][]float32 `json:"inputs"`
}

// Prediction is one sample's answer.
type Prediction struct {
	Class int       `json:"class"`
	Probs []float32 `json:"probs"`
}

// PredictResponse is the /predict response body. ModelSeq and ModelSource
// identify the version that produced every prediction in the response.
type PredictResponse struct {
	ModelSeq    int64        `json:"model_seq"`
	ModelSource string       `json:"model_source"`
	Predictions []Prediction `json:"predictions"`
}

// maxPredictBody bounds a /predict request body (16 MB: ~2000 CIFAR-sized
// samples, far above any sane micro-batch). A longer body is refused whole.
const maxPredictBody = 16 << 20

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	c := s.calls.Get().(*call)
	if err := c.read(w, r, s.inLen); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		s.release(c)
		return
	}

	// Admit each sample separately: they may land in different
	// micro-batches (and even different model versions under a swap; the
	// response reports the newest). From here on the call is released only
	// once every admitted request has been answered.
	now := time.Now()
	reqs := c.requests(len(c.samples))
	for i, in := range c.samples {
		req := &reqs[i]
		req.x, req.enq = in, now
		s.requests.Inc()
		if shed, draining := s.enqueue(req); draining {
			http.Error(w, "server draining", http.StatusServiceUnavailable)
			return
		} else if shed {
			s.sheds.Inc()
			w.Header().Set("Retry-After", "1")
			http.Error(w, "overloaded: admission queue full", http.StatusTooManyRequests)
			return
		}
	}

	resp := PredictResponse{Predictions: c.preds[:0]}
	for i := range reqs {
		res := <-reqs[i].resp
		if res.err != nil {
			http.Error(w, res.err.Error(), http.StatusServiceUnavailable)
			return
		}
		// With several samples racing a swap, report the newest version.
		if res.seq >= resp.ModelSeq {
			resp.ModelSeq, resp.ModelSource = res.seq, res.source
		}
		resp.Predictions = append(resp.Predictions, Prediction{Class: res.class, Probs: res.probs})
	}
	c.preds = resp.Predictions
	c.out.Reset()
	if err := json.NewEncoder(&c.out).Encode(resp); err != nil {
		// A NaN probability, from a version whose weights are not finite.
		http.Error(w, "encode answer: "+err.Error(), http.StatusInternalServerError)
	} else {
		w.Header().Set("Content-Type", "application/json")
		w.Write(c.out.Bytes())
	}
	s.release(c)
}

// read reads and parses a /predict body into c, and checks that it holds
// samples of inLen features.
func (c *call) read(w http.ResponseWriter, r *http.Request, inLen int) error {
	c.body.Reset()
	if _, err := c.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxPredictBody)); err != nil {
		return fmt.Errorf("bad request body: %v", err)
	}
	var err error
	if c.samples, err = c.p.parse(c.body.Bytes(), c.samples); err != nil {
		return fmt.Errorf("bad request body: %v", err)
	}
	if len(c.samples) == 0 {
		return errors.New("no inputs")
	}
	for i, in := range c.samples {
		if len(in) != inLen {
			return fmt.Errorf("input %d has %d features, want %d", i, len(in), inLen)
		}
	}
	return nil
}

// release returns a call whose requests have all been answered to the pool.
func (s *Server) release(c *call) {
	if c.body.Cap() > maxPooledBody {
		return
	}
	clear(c.preds)
	s.calls.Put(c)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.admitMu.RLock()
	draining := s.draining
	s.admitMu.RUnlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if s.cfg.Registry.Current() == nil {
		http.Error(w, "no model", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleModelz(w http.ResponseWriter, _ *http.Request) {
	v := s.cfg.Registry.Current()
	if v == nil {
		http.Error(w, "no model", http.StatusServiceUnavailable)
		return
	}
	resp := map[string]any{
		"seq": v.Seq, "source": v.Source, "at": v.At,
		"model": s.cfg.Registry.Spec().Kind, "ckpt_bytes": len(v.Ckpt),
		"digest": v.Digest,
		"chain":  s.cfg.Registry.Chain(),
	}
	if v.Manifest != nil {
		resp["manifest"] = v.Manifest
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.cfg.Metrics.Expvar())
}

// --- batch runner ---

// replica is one runner's model state: its private model, the inference view
// it serves through, the version they hold, and one input buffer of MaxBatch
// samples that every batch is copied into.
type replica struct {
	model  *nn.Model
	view   *nn.View
	seq    int64
	source string
	in     []float32
	x      []*tensor.Tensor // x[n-1] views the first n samples of in
}

func (s *Server) newReplica() *replica {
	return &replica{seq: -1, in: make([]float32, s.cfg.MaxBatch*s.inLen),
		x: make([]*tensor.Tensor, s.cfg.MaxBatch)}
}

// rows returns the tensor view of the first n samples of the input buffer,
// made once per batch size.
func (s *Server) rows(rp *replica, n int) *tensor.Tensor {
	if rp.x[n-1] == nil {
		spec := s.cfg.Registry.Spec()
		rp.x[n-1] = tensor.FromSlice(rp.in[:n*s.inLen], n, spec.Channels, spec.Height, spec.Width)
	}
	return rp.x[n-1]
}

// runner owns one private model replica and executes micro-batches until
// the queue closes and drains. It keeps one batch slice and one replica for
// its lifetime, so a batch allocates only its answers.
func (s *Server) runner() {
	defer s.runners.Done()
	rp := s.newReplica()
	batch := make([]*request, 0, s.cfg.MaxBatch)
	few := 0 // batches in a row that held fewer than yieldFew requests
	for {
		first, ok := s.next(few)
		if !ok {
			return
		}
		batch = s.collect(batch[:0], first)
		if len(batch) >= yieldFew {
			few = 0
		} else {
			few++
		}
		s.qDepth.Set(int64(len(s.queue)))
		s.serveBatch(rp, batch)
		clear(batch) // the requests now belong to their handlers
	}
}

// serveBatch answers one batch from the registry's current version. The
// replica serves through one inference view (nn.View), built once, whose
// Dense weights are packed once per version. Version swaps happen
// between batches: the sequence is compared against the registry on every
// batch and, when it changed, the replica is restored from the new
// checkpoint and its view repacked in place, so requests already in a batch
// always finish on the version they started with and a swap allocates
// nothing.
func (s *Server) serveBatch(rp *replica, batch []*request) {
	v := s.cfg.Registry.Current()
	if v == nil {
		s.fail(batch, errNoModel)
		return
	}
	if v.Seq != rp.seq {
		if rp.view == nil {
			rp.model = s.cfg.Registry.Spec().BuildZero()
			rp.view = nn.NewView(rp.model)
		}
		if err := rp.model.Restore(v.Ckpt); err != nil {
			// Validated at publish; only memory corruption gets here.
			s.fail(batch, fmt.Errorf("serve: restore version %d: %w", v.Seq, err))
			rp.seq = -1
			return
		}
		rp.view.Repack()
		rp.seq, rp.source = v.Seq, v.Source
	}
	s.run(rp, batch)
}

// next takes the request a batch starts from and reports false once the
// queue is closed and drained. A runner woken by a send runs next on the
// sender's processor, ahead of handlers whose requests have already arrived,
// so on a box with no idle core it would run every request alone; when the
// queue was empty, next therefore yields once before returning, to let those
// handlers queue first. With a core to spare a yield only delays the
// forward, so it yields while batches form (until yieldFew batches in a row
// have held fewer than yieldFew requests) and, after that, before every
// yieldProbe-th batch, to find out whether they would form again. A request
// already queued is taken at once: handlers kept up during the last forward.
func (s *Server) next(few int) (*request, bool) {
	select {
	case r, ok := <-s.queue:
		return r, ok
	default:
	}
	r, ok := <-s.queue
	if ok && s.cfg.MaxBatch > 1 && (few < yieldFew || few%yieldProbe == 0) {
		runtime.Gosched()
	}
	return r, ok
}

// yieldFew and yieldProbe were measured on a 2-core box (DESIGN.md §8).
const (
	yieldFew   = 4
	yieldProbe = 256
)

// collect assembles a micro-batch in batch around the first request: it
// takes whatever is already queued, up to MaxBatch, and never waits for
// more. The queue sizes the batch: under light load a request runs alone at
// once, and under heavy load every request that arrived during the last
// forward pass rides in the next.
func (s *Server) collect(batch []*request, first *request) []*request {
	batch = append(batch, first)
	for len(batch) < s.cfg.MaxBatch {
		select {
		case r, ok := <-s.queue:
			if !ok {
				return batch
			}
			batch = append(batch, r)
		default:
			return batch
		}
	}
	return batch
}

// run executes one micro-batch as a single forward pass over the first
// len(batch) samples of the replica's input buffer and fans the rows back
// out to their requests. The batch is recorded before anyone is answered, so
// a caller that reads the metrics after its answer sees its own request
// counted. A request is not touched after its answer is sent: its handler
// may then hand the record, and the sample it points into, to another call.
func (s *Server) run(rp *replica, batch []*request) {
	for i, req := range batch {
		copy(rp.in[i*s.inLen:(i+1)*s.inLen], req.x)
	}
	logits := rp.view.Forward(s.rows(rp, len(batch)))
	now := time.Now()
	for _, req := range batch {
		s.hLatency.Observe(now.Sub(req.enq).Seconds())
	}
	s.batches.Inc()
	s.answered.Add(int64(len(batch)))
	s.hBatch.Observe(float64(len(batch)))
	for i, req := range batch {
		probs, class := softmaxRow(logits.Data[i*s.classes : (i+1)*s.classes])
		req.resp <- result{seq: rp.seq, source: rp.source, class: class, probs: probs}
	}
}

// fail answers every request in the batch with err.
func (s *Server) fail(batch []*request, err error) {
	for _, req := range batch {
		req.resp <- result{err: err}
	}
}

// softmaxRow computes stable softmax probabilities and the argmax class
// for one row of logits.
func softmaxRow(logits []float32) ([]float32, int) {
	maxV, class := float32(math.Inf(-1)), 0
	for i, v := range logits {
		if v > maxV {
			maxV, class = v, i
		}
	}
	probs := make([]float32, len(logits))
	var sum float64
	for i, v := range logits {
		e := math.Exp(float64(v - maxV))
		probs[i] = float32(e)
		sum += e
	}
	if sum > 0 {
		inv := float32(1 / sum)
		for i := range probs {
			probs[i] *= inv
		}
	}
	return probs, class
}

// --- TCP-bound convenience wrapper ---

// HTTPServer is a Server bound to a TCP listener.
type HTTPServer struct {
	App *Server
	hs  *http.Server
	ln  net.Listener
}

// Listen builds a server from cfg and serves it on addr (use
// "127.0.0.1:0" for an ephemeral port). It returns once listening.
func Listen(cfg Config, addr string) (*HTTPServer, error) {
	app, err := NewServer(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		app.Shutdown(context.Background())
		return nil, err
	}
	h := &HTTPServer{App: app, hs: &http.Server{Handler: app}, ln: ln}
	go h.hs.Serve(ln)
	return h, nil
}

// Addr returns the bound address.
func (h *HTTPServer) Addr() string { return h.ln.Addr().String() }

// URL returns the server's base URL.
func (h *HTTPServer) URL() string { return "http://" + h.Addr() }

// Shutdown drains gracefully: the app stops admitting and answers every
// in-flight request, then the HTTP server finishes its connections.
func (h *HTTPServer) Shutdown(ctx context.Context) error {
	appErr := h.App.Shutdown(ctx)
	if err := h.hs.Shutdown(ctx); err != nil {
		return err
	}
	return appErr
}

// Close tears the server down without draining.
func (h *HTTPServer) Close() error {
	err := h.hs.Close()
	h.App.Shutdown(context.Background())
	return err
}
