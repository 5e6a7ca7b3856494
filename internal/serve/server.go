// Package serve implements actd, the carbon-assessment HTTP service: the
// ACT model (Gupta et al., ISCA 2022) behind a long-lived, observable
// endpoint instead of a one-shot CLI. The service speaks the same
// version-1 scenario wire format as cmd/act and returns the same JSON
// results byte-for-byte, so a fleet assessment can move between the two
// freely.
//
// Endpoints:
//
//	POST /v1/footprint  one scenario object or a batch array of them
//	POST /v1/sweep      metric rankings / Pareto frontier over candidates
//	POST /v1/script     a sandboxed scenario program under hard budgets
//	GET  /healthz       liveness (always 200 while the process serves)
//	GET  /readyz        readiness (503 while draining or a breaker is open)
//	GET  /metrics       Prometheus text exposition
//
// A footprint request, one object or a batch, is a batch to the columnar
// engine: scenarios probe an LRU cache keyed on the canonical scenario
// encoding (scenario.CanonicalKey), duplicates within the request
// coalesce, and the distinct misses fan out across the parsweep worker
// pool under a per-request concurrency bound, so a fleet batch of
// identical BoMs costs one model evaluation. One retry layer wraps the
// whole request. Requests carry a server-imposed timeout (exceeded →
// 504) and shutdown is graceful: in-flight requests drain, new ones are
// rejected with 503.
//
// The resilience layer sits between the router and the handlers. The full
// status taxonomy a client can observe:
//
//	200  evaluated
//	400  the request is the client's to fix (validation, parse, version)
//	413  body or batch over the configured limit
//	429  shed before any work was accepted (admission queue full, or the
//	     deadline could not survive the queue) — carries Retry-After
//	500  internal fault (a panic, or a transient fault that survived the
//	     retry budget)
//	503  draining, or the handler's circuit breaker is open — Retry-After
//	504  the request deadline lapsed after work was accepted; the deadline
//	     propagates so in-flight workers stop rather than run for nobody
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"act/internal/cluster"
	"act/internal/fleet"
	"act/internal/resilience"
)

// Config tunes a Server. Zero fields take the documented defaults.
type Config struct {
	// Addr is the listen address (default ":8080").
	Addr string
	// Workers bounds the per-request scenario fan-out (default GOMAXPROCS).
	Workers int
	// MaxBatch caps scenarios per request (default 10000; exceeded → 413).
	MaxBatch int
	// CacheSize is the footprint LRU capacity in entries (default 4096;
	// negative disables residency).
	CacheSize int
	// RequestTimeout bounds each API request (default 30s; exceeded → 504).
	RequestTimeout time.Duration
	// MaxBodyBytes caps the request body (default 32 MiB).
	MaxBodyBytes int64
	// Logger receives structured request logs (default JSON to stderr).
	Logger *slog.Logger

	// MaxInFlight bounds concurrently admitted API requests (default 256;
	// negative disables admission control entirely).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an admission slot (default
	// 2×MaxInFlight); beyond it requests shed immediately with 429.
	MaxQueue int
	// RetryAttempts is the total attempts (first try included) given to a
	// request that fails with a transient fault (default 3; 1 disables
	// retries). Validation errors are never retried.
	RetryAttempts int
	// BreakerThreshold is the run of consecutive 5xx responses that trips
	// a handler's circuit breaker (default 5; negative disables breakers).
	BreakerThreshold int
	// BreakerOpenFor is how long a tripped breaker rejects with 503 before
	// probing (default 5s).
	BreakerOpenFor time.Duration

	// FleetShards is the fleet registry's lock-domain count (default 64).
	FleetShards int
	// FleetResolver maps fleet device regions to operational grid
	// intensity (default the paper's Table 6 averages).
	FleetResolver fleet.IntensityResolver

	// ScriptMaxSteps caps evaluator steps per /v1/script program
	// (default script.DefaultMaxSteps; negative disables the cap).
	ScriptMaxSteps int64
	// ScriptMaxBytes caps a script's allocation estimate in bytes
	// (default script.DefaultMaxAllocBytes; negative disables the cap).
	ScriptMaxBytes int64
	// ScriptTimeout is the per-script wall-clock budget, independent of
	// (and bounded by) RequestTimeout (default script.DefaultTimeout).
	ScriptTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 10000
	}
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 256
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 2 * c.MaxInFlight
	}
	if c.RetryAttempts == 0 {
		c.RetryAttempts = 3
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerOpenFor == 0 {
		c.BreakerOpenFor = 5 * time.Second
	}
	return c
}

// Server is the actd HTTP service.
type Server struct {
	cfg      Config
	log      *slog.Logger
	cache    *Cache[json.RawMessage]
	reg      *Registry
	mux      *http.ServeMux
	httpSrv  *http.Server
	draining atomic.Bool

	admit    *resilience.Admission          // nil when disabled
	breakers map[string]*resilience.Breaker // per API handler; nil when disabled
	reqIDs   *reqIDSource

	fleet      *fleet.Registry
	fleetStore atomic.Pointer[fleet.Store] // nil until OpenFleet attaches durability
	compactor  *fleetCompactor             // nil unless OpenFleet started one
	cluster    atomic.Pointer[cluster.Cluster] // nil until EnableCluster

	mRequests     *CounterVec // actd_requests_total{handler,code}
	mLatency      *Histogram  // actd_request_duration_seconds
	mCacheHits    *Counter    // actd_cache_hits_total
	mCacheMisses  *Counter    // actd_cache_misses_total
	mInflight     *Gauge      // actd_inflight_requests
	mPoolDepth    *Gauge      // actd_pool_depth
	mScenarios    *Counter    // actd_scenarios_total
	mShed         *CounterVec // actd_shed_total{reason}
	mRetries      *Counter    // actd_retries_total
	mBreakerState *GaugeVec   // actd_breaker_state{handler}

	mFleetIngest    *CounterVec // actd_fleet_ingest_total{code}
	mFleetRecompute *Histogram  // actd_fleet_recompute_seconds
	mEncodeErrors   *Counter    // actd_response_encode_errors_total

	mClusterPeerState *GaugeVec   // actd_cluster_peer_breaker_state{peer}
	mClusterScatter   *CounterVec // actd_cluster_scatter_total{outcome}

	mScriptEvals    *CounterVec // actd_script_evals_total{code}
	mScriptSteps    *Histogram  // actd_script_steps
	mScriptDuration *Histogram  // actd_script_duration_seconds

	exporter         exporterControl // nil unless AttachExporter
	exportCfgVersion atomic.Int64
}

// New builds a Server from the config. Call ListenAndServe (or Serve on an
// existing listener) to run it, Handler to mount it under a test server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		log:    cfg.Logger,
		cache:  NewCache[json.RawMessage](cfg.CacheSize),
		reg:    NewRegistry(),
		mux:    http.NewServeMux(),
		reqIDs: newReqIDSource(),
	}
	s.fleet = fleet.New(fleet.Config{
		Shards:   cfg.FleetShards,
		Resolver: cfg.FleetResolver,
		Workers:  cfg.Workers,
	})
	s.mRequests = s.reg.NewCounterVec("actd_requests_total",
		"API requests served, by handler and HTTP status code.", "handler", "code")
	s.mLatency = s.reg.NewHistogram("actd_request_duration_seconds",
		"API request latency in seconds.", DefaultLatencyBuckets)
	s.mCacheHits = s.reg.NewCounter("actd_cache_hits_total",
		"Scenario evaluations answered from the footprint cache.")
	s.mCacheMisses = s.reg.NewCounter("actd_cache_misses_total",
		"Scenario evaluations that ran the model.")
	s.mInflight = s.reg.NewGauge("actd_inflight_requests",
		"API requests currently being served.")
	s.mPoolDepth = s.reg.NewGauge("actd_pool_depth",
		"Scenario evaluations queued or running on the worker pool.")
	s.mScenarios = s.reg.NewCounter("actd_scenarios_total",
		"Scenarios evaluated across all requests, cached or not.")
	s.mShed = s.reg.NewCounterVec("actd_shed_total",
		"Requests turned away before any work was accepted, by reason.", "reason")
	s.mRetries = s.reg.NewCounter("actd_retries_total",
		"Transient-fault retries across scenario evaluations and batch fan-outs.")
	s.mBreakerState = s.reg.NewGaugeVec("actd_breaker_state",
		"Circuit breaker position per handler (0 closed, 1 open, 2 half-open).", "handler")
	s.reg.NewGaugeFunc("actd_fleet_devices",
		"Devices registered in the fleet registry.", func() int64 {
			return int64(s.fleet.Len())
		})
	s.reg.NewGaugeFunc("actd_fleet_wal_segments",
		"Write-ahead log segments on disk (0 when the fleet is in-memory).", func() int64 {
			if st := s.fleetStore.Load(); st != nil {
				return int64(st.WALSegments())
			}
			return 0
		})
	s.reg.NewGaugeFunc("actd_fleet_wal_bytes",
		"Total bytes across write-ahead log segments.", func() int64 {
			if st := s.fleetStore.Load(); st != nil {
				return st.WALBytes()
			}
			return 0
		})
	s.reg.NewCounterFunc("actd_fleet_recovery_quarantined_total",
		"Corrupt write-ahead log segments quarantined by recovery since boot.", func() int64 {
			if st := s.fleetStore.Load(); st != nil {
				return st.QuarantinedTotal()
			}
			return 0
		})
	s.reg.NewGaugeFunc("actd_fleet_degraded",
		"1 while fleet persistence is degraded and writes are rejected, else 0.", func() int64 {
			if st := s.fleetStore.Load(); st != nil {
				if down, _ := st.Degraded(); down {
					return 1
				}
			}
			return 0
		})
	s.mFleetIngest = s.reg.NewCounterVec("actd_fleet_ingest_total",
		"Fleet ingest outcomes, by device disposition.", "code")
	s.mFleetRecompute = s.reg.NewHistogram("actd_fleet_recompute_seconds",
		"Latency of full fleet recomputations in seconds.", DefaultLatencyBuckets)
	s.mEncodeErrors = s.reg.NewCounter("actd_response_encode_errors_total",
		"Response bodies that failed to encode after the status line was committed.")
	s.mClusterPeerState = s.reg.NewGaugeVec("actd_cluster_peer_breaker_state",
		"Per-peer cluster RPC breaker position (0 closed, 1 open, 2 half-open).", "peer")
	s.mClusterScatter = s.reg.NewCounterVec("actd_cluster_scatter_total",
		"Cluster scatter-gather summaries, by outcome (full, partial, error).", "outcome")
	s.mScriptEvals = s.reg.NewCounterVec("actd_script_evals_total",
		"Sandboxed script evaluations, by outcome code.", "code")
	s.mScriptSteps = s.reg.NewHistogram("actd_script_steps",
		"Evaluator steps consumed per successful script.",
		[]float64{100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000})
	s.mScriptDuration = s.reg.NewHistogram("actd_script_duration_seconds",
		"Sandboxed script evaluation latency in seconds.", DefaultLatencyBuckets)

	if cfg.MaxInFlight > 0 {
		s.admit = resilience.NewAdmission(resilience.AdmissionConfig{
			MaxInFlight: cfg.MaxInFlight,
			MaxQueue:    cfg.MaxQueue,
		})
	}
	s.reg.NewGaugeFunc("actd_queue_depth",
		"Requests waiting for an admission slot.", func() int64 {
			if s.admit == nil {
				return 0
			}
			return s.admit.Queued()
		})

	if cfg.BreakerThreshold > 0 {
		s.breakers = map[string]*resilience.Breaker{}
		for _, name := range []string{"footprint", "sweep", "script", "fleet_ingest", "fleet_recompute"} {
			name := name
			s.mBreakerState.With(name).Store(int64(resilience.Closed))
			s.breakers[name] = resilience.NewBreaker(resilience.BreakerConfig{
				FailureThreshold: cfg.BreakerThreshold,
				OpenFor:          cfg.BreakerOpenFor,
				OnStateChange: func(from, to resilience.State) {
					s.mBreakerState.With(name).Store(int64(to))
					s.log.Warn("breaker state change", "handler", name,
						"from", from.String(), "to", to.String())
				},
			})
		}
	}

	s.mux.Handle("POST /v1/footprint", s.api("footprint", s.handleFootprint))
	s.mux.Handle("POST /v1/sweep", s.api("sweep", s.handleSweep))
	s.mux.Handle("POST /v1/script", s.api("script", s.handleScript))
	s.mux.Handle("POST /v1/fleet/devices", s.api("fleet_ingest", s.handleFleetIngest))
	s.mux.Handle("GET /v1/fleet/summary", s.api("fleet_summary", s.handleFleetSummary))
	s.mux.Handle("DELETE /v1/fleet/devices/{id}", s.api("fleet_delete", s.handleFleetDelete))
	s.mux.Handle("POST /v1/fleet/recompute", s.api("fleet_recompute", s.handleFleetRecompute))
	s.mux.Handle("GET /v1/cluster/partial", s.api("cluster_partial", s.handleClusterPartial))
	s.mux.Handle("GET /v1/cluster/snapshot", s.api("cluster_snapshot", s.handleClusterSnapshot))
	s.mux.Handle("POST /v1/cluster/recompute/prepare", s.api("cluster_prepare", s.handleClusterPrepare))
	s.mux.Handle("POST /v1/cluster/recompute/commit", s.api("cluster_commit", s.handleClusterCommit))
	s.mux.Handle("POST /v1/cluster/recompute/abort", s.api("cluster_abort", s.handleClusterAbort))
	s.mux.Handle("GET /v1/export/config", s.api("export_config", s.handleExportConfigGet))
	s.mux.Handle("PUT /v1/export/config", s.api("export_config", s.handleExportConfigPut))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)

	s.httpSrv = &http.Server{
		Addr:              cfg.Addr,
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// Handler returns the service's HTTP handler, for mounting under httptest.
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe serves on the configured address until Shutdown. A clean
// shutdown returns nil.
func (s *Server) ListenAndServe() error {
	l, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Serve serves on l until Shutdown. A clean shutdown returns nil.
func (s *Server) Serve(l net.Listener) error {
	s.log.Info("actd serving", "addr", l.Addr().String())
	err := s.httpSrv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the server gracefully: new API requests are rejected
// with 503 immediately, listeners close, and in-flight requests run to
// completion (bounded by ctx — a lapsed ctx abandons stragglers the way
// net/http.Server.Shutdown does).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.log.Info("actd draining")
	return s.httpSrv.Shutdown(ctx)
}

// api wraps an API handler with the service middleware, outermost first:
// request-id propagation, drain rejection, in-flight accounting, the
// per-request timeout, admission control (shed with 429 before any work),
// the handler's circuit breaker (503 while open), a panic barrier (500),
// metrics and structured request logging.
func (s *Server) api(name string, h func(http.ResponseWriter, *http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := s.reqIDs.requestID(r)
		w.Header().Set("X-Request-Id", reqID)
		r = r.WithContext(withRequestID(r.Context(), reqID))

		s.mInflight.Inc()
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		s.dispatch(name, rec, r, h)
		dur := time.Since(start)
		s.mInflight.Dec()

		s.mRequests.With(name, strconv.Itoa(rec.code)).Add(1)
		s.mLatency.Observe(dur.Seconds())
		s.log.Info("request",
			"handler", name,
			"method", r.Method,
			"path", r.URL.Path,
			"code", rec.code,
			"duration_ms", float64(dur.Microseconds())/1e3,
			"remote", r.RemoteAddr,
			"request_id", reqID,
		)
	})
}

// dispatch runs one admitted-or-shed request through the resilience layers
// and the handler. It always writes a complete response to rec.
func (s *Server) dispatch(name string, rec *statusRecorder, r *http.Request, h func(http.ResponseWriter, *http.Request)) {
	if s.draining.Load() {
		s.writeErrorCode(rec, r, http.StatusServiceUnavailable, codeUnavailable, "", "server is draining")
		return
	}

	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
	}

	// Admission: shed before any work is accepted, so an overloaded server
	// answers cheaply instead of queueing work it cannot finish.
	if s.admit != nil {
		release, err := s.admit.Acquire(ctx)
		if err != nil {
			shed, _ := resilience.IsShed(err)
			s.mShed.With(shed.Reason).Add(1)
			rec.Header().Set("Retry-After", retryAfterSeconds(shed.RetryAfter))
			s.writeErrorCode(rec, r, http.StatusTooManyRequests, codeOverloaded, "",
				"overloaded: "+shed.Error())
			return
		}
		defer release()
	}

	// Circuit breaker around everything the handler computes.
	if brk := s.breakers[name]; brk != nil {
		done, err := brk.Allow()
		if err != nil {
			s.mShed.With(resilience.ShedBreaker).Add(1)
			if ra := brk.RetryAfter(); ra > 0 {
				rec.Header().Set("Retry-After", retryAfterSeconds(ra))
			}
			s.writeErrorCode(rec, r, http.StatusServiceUnavailable, codeUnavailable, "",
				"service temporarily unavailable: "+err.Error())
			return
		}
		// The panic barrier below runs first (deferred later), so rec.code
		// is final — a panic counts as the 500 it produced.
		defer func() { done(rec.code < 500) }()
	}

	// Panic barrier: a crashing evaluation answers 500 with the request id
	// instead of killing the connection (or, unrecovered, the process).
	defer func() {
		if p := recover(); p != nil {
			s.log.Error("handler panic",
				"handler", name,
				"request_id", RequestIDFrom(r.Context()),
				"panic", fmt.Sprint(p),
				"stack", string(debug.Stack()),
			)
			if !rec.wrote {
				s.writeErrorCode(rec, r, http.StatusInternalServerError, codeInternal, "",
					"internal error")
			} else {
				rec.code = http.StatusInternalServerError // for metrics/breaker
			}
		}
	}()

	h(rec, r)
}

// retryAfterSeconds renders a Retry-After header value (whole seconds,
// at least 1).
func retryAfterSeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// statusRecorder captures the response code for logging and metrics.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.code = code
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(p)
}

// writeJSON writes v as the response with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// handleHealthz is the liveness probe: 200 for as long as the process can
// answer at all — even while draining, the process is alive. Routability
// is /readyz's job.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: 503 while draining, while fleet
// persistence is degraded (the store is read-only until a probe heals
// it), or while any handler's circuit breaker is open, so load balancers
// route around a server that would only shed or reject; 200 otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if st := s.fleetStore.Load(); st != nil {
		if down, reason := st.Degraded(); down {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{
				"status": "degraded",
				"reason": reason,
			})
			return
		}
	}
	for name, brk := range s.breakers {
		if brk.State() == resilience.Open {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{
				"status":  "breaker-open",
				"handler": name,
			})
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(s.reg.Render()))
}
