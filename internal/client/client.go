// Package client is a Go client for the vpserve HTTP API with the retry
// discipline a flaky network (or a fault-injected server) demands:
// exponential backoff with decorrelated jitter, Retry-After honoring, a
// consecutive-failure circuit breaker, and a degraded mode that serves the
// last known-good result (flagged Stale) when the server sheds load.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/server"
)

// ErrCircuitOpen is returned (possibly after a stale fallback is considered)
// while the circuit breaker is open and the cooldown has not elapsed.
var ErrCircuitOpen = errors.New("client: circuit open")

// APIError is a non-2xx response from the server.
type APIError struct {
	Status int    // HTTP status code
	Msg    string // server-reported error message
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.Status, e.Msg)
}

// retryable reports whether the failure is plausibly transient. 4xx
// validation and sandbox-limit rejections (400, 404, 422) are deterministic:
// retrying the identical request cannot succeed.
func retryable(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusInternalServerError,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout,
		http.StatusRequestTimeout:
		return true
	}
	return false
}

// Config configures a Client. The zero value of every field selects a
// sensible default; only BaseURL is required.
type Config struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client

	// MaxRetries is the number of re-attempts after the first try
	// (default 4, so 5 attempts total). Negative disables retries.
	MaxRetries int
	// BaseBackoff (default 50ms) and MaxBackoff (default 2s) bound the
	// decorrelated-jitter backoff: sleep_n = min(MaxBackoff,
	// uniform(BaseBackoff, 3*sleep_{n-1})). A server Retry-After header
	// overrides the computed delay.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration

	// FailureThreshold consecutive failed attempts open the circuit
	// breaker (default 5; negative disables it). While open, calls fail
	// fast with ErrCircuitOpen until Cooldown (default 5s) elapses; then
	// a single probe is let through and its outcome closes or re-opens
	// the breaker.
	FailureThreshold int
	Cooldown         time.Duration

	// StaleCacheSize bounds the per-request last-good-result cache used
	// for degraded-mode fallbacks (default 64; negative disables it).
	StaleCacheSize int
	// Seed fixes the jitter RNG for reproducible tests (default 1).
	Seed int64

	// sleep and now are test seams; nil selects time.Sleep / time.Now.
	sleep func(time.Duration)
	now   func() time.Time
}

func (c *Config) applyDefaults() {
	if c.HTTPClient == nil {
		c.HTTPClient = http.DefaultClient
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 4
	}
	if c.BaseBackoff == 0 {
		c.BaseBackoff = 50 * time.Millisecond
	}
	if c.MaxBackoff == 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.FailureThreshold == 0 {
		c.FailureThreshold = 5
	}
	if c.Cooldown == 0 {
		c.Cooldown = 5 * time.Second
	}
	if c.StaleCacheSize == 0 {
		c.StaleCacheSize = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.sleep == nil {
		c.sleep = time.Sleep
	}
	if c.now == nil {
		c.now = time.Now
	}
}

// Result is an evaluation outcome. Stale marks a degraded-mode response: the
// server was unreachable or shedding load, and this is the last result it
// returned for the same request.
type Result struct {
	server.JobResponse
	Stale    bool // served from the client's last-good cache
	Attempts int  // HTTP attempts made for this call
}

// Client is safe for concurrent use.
type Client struct {
	cfg Config

	mu          sync.Mutex
	rng         *rand.Rand
	consecFails int
	breakerOpen bool
	openUntil   time.Time
	probing     bool
	stale       map[string]server.JobResponse
	staleOrder  []string // FIFO eviction
}

// New returns a Client for the server at cfg.BaseURL.
func New(cfg Config) *Client {
	cfg.applyDefaults()
	return &Client{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		stale: make(map[string]server.JobResponse),
	}
}

// --- circuit breaker ---

// allow gates an attempt on the breaker state. When the cooldown has elapsed
// it admits exactly one half-open probe; everything else fails fast.
func (c *Client) allow() error {
	if c.cfg.FailureThreshold < 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.breakerOpen {
		return nil
	}
	if c.cfg.now().Before(c.openUntil) || c.probing {
		return ErrCircuitOpen
	}
	c.probing = true
	return nil
}

func (c *Client) onSuccess() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.consecFails = 0
	c.breakerOpen = false
	c.probing = false
}

func (c *Client) onFailure() {
	if c.cfg.FailureThreshold < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.consecFails++
	wasProbe := c.probing
	c.probing = false
	if wasProbe || (!c.breakerOpen && c.consecFails >= c.cfg.FailureThreshold) {
		c.breakerOpen = true
		c.openUntil = c.cfg.now().Add(c.cfg.Cooldown)
	}
}

// nextBackoff advances the decorrelated-jitter sequence.
func (c *Client) nextBackoff(prev time.Duration) time.Duration {
	base, cap := c.cfg.BaseBackoff, c.cfg.MaxBackoff
	hi := 3 * prev
	if hi < base {
		hi = base
	}
	c.mu.Lock()
	d := base + time.Duration(c.rng.Int63n(int64(hi-base)+1))
	c.mu.Unlock()
	if d > cap {
		d = cap
	}
	return d
}

// --- stale cache ---

func staleKey(req server.EvaluateRequest) string {
	b, _ := json.Marshal(req)
	return string(b)
}

func (c *Client) storeStale(key string, jr server.JobResponse) {
	if c.cfg.StaleCacheSize < 0 {
		return
	}
	c.mu.Lock()
	if _, ok := c.stale[key]; !ok {
		c.staleOrder = append(c.staleOrder, key)
		for len(c.staleOrder) > c.cfg.StaleCacheSize {
			delete(c.stale, c.staleOrder[0])
			c.staleOrder = c.staleOrder[1:]
		}
	}
	c.stale[key] = jr
	c.mu.Unlock()
}

func (c *Client) loadStale(key string) (server.JobResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	jr, ok := c.stale[key]
	return jr, ok
}

// --- transport ---

// do performs one HTTP round trip and decodes a 2xx body into out.
// Non-2xx responses become *APIError; retryAfter carries a parsed
// Retry-After header when present.
func (c *Client) do(ctx context.Context, method, path string, body, out any) (retryAfter time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return 0, fmt.Errorf("client: encode request: %w", err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.cfg.BaseURL+path, rd)
	if err != nil {
		return 0, fmt.Errorf("client: build request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return 0, fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return 0, fmt.Errorf("client: read response: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, perr := strconv.Atoi(s); perr == nil && secs >= 0 {
				retryAfter = time.Duration(secs) * time.Second
			}
		}
		var eb struct {
			Error string `json:"error"`
		}
		_ = json.Unmarshal(raw, &eb)
		if eb.Error == "" {
			eb.Error = http.StatusText(resp.StatusCode)
		}
		return retryAfter, &APIError{Status: resp.StatusCode, Msg: eb.Error}
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return 0, fmt.Errorf("client: decode response: %w", err)
		}
	}
	return 0, nil
}

// call runs do under the retry policy and circuit breaker, returning the
// number of attempts made.
func (c *Client) call(ctx context.Context, method, path string, body, out any) (attempts int, err error) {
	backoff := c.cfg.BaseBackoff
	maxAttempts := 1 + c.cfg.MaxRetries
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if err = c.allow(); err != nil {
			return attempts, err
		}
		attempts++
		var retryAfter time.Duration
		retryAfter, err = c.do(ctx, method, path, body, out)
		if err == nil {
			c.onSuccess()
			return attempts, nil
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) && !retryable(apiErr.Status) {
			// Deterministic rejection: the server is healthy and said
			// no. Not a breaker failure, and never worth a retry.
			c.onSuccess()
			return attempts, err
		}
		c.onFailure()
		if ctx.Err() != nil {
			return attempts, err
		}
		if attempt == maxAttempts-1 {
			break
		}
		delay := c.nextBackoff(backoff)
		if retryAfter > delay {
			delay = retryAfter
		}
		backoff = delay
		c.cfg.sleep(delay)
	}
	return attempts, err
}

// --- API surface ---

// Evaluate runs a synchronous evaluation. On transient failure it retries
// with backoff; if the server stays unavailable (or the breaker is open) and
// a previous result for the same request is cached, that result is returned
// with Stale set instead of an error.
func (c *Client) Evaluate(ctx context.Context, req server.EvaluateRequest) (*Result, error) {
	key := staleKey(req)
	var jr server.JobResponse
	attempts, err := c.call(ctx, http.MethodPost, "/v1/evaluate", req, &jr)
	if err == nil {
		c.storeStale(key, jr)
		return &Result{JobResponse: jr, Attempts: attempts}, nil
	}
	if degraded(err) {
		if old, ok := c.loadStale(key); ok {
			return &Result{JobResponse: old, Stale: true, Attempts: attempts}, nil
		}
	}
	return nil, err
}

// degraded reports whether the failure means "service unavailable right now"
// — the cases where a stale cached result beats an error.
func degraded(err error) bool {
	if errors.Is(err, ErrCircuitOpen) {
		return true
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return retryable(apiErr.Status)
	}
	// Transport-level failure (connection refused, timeout, ...).
	return !errors.Is(err, context.Canceled)
}

// SubmitProgram registers a program (assembly source or .vpimg image) and
// returns its server-assigned id.
func (c *Client) SubmitProgram(ctx context.Context, req server.SubmitProgramRequest) (*server.ProgramInfo, error) {
	var info server.ProgramInfo
	if _, err := c.call(ctx, http.MethodPost, "/v1/programs", req, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// Healthz checks server liveness (no retries beyond the standard policy).
func (c *Client) Healthz(ctx context.Context) error {
	_, err := c.call(ctx, http.MethodGet, "/healthz", nil, nil)
	return err
}

// Metrics fetches the server's metrics snapshot.
func (c *Client) Metrics(ctx context.Context) (*server.MetricsSnapshot, error) {
	var snap server.MetricsSnapshot
	if _, err := c.call(ctx, http.MethodGet, "/metrics", nil, &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}
