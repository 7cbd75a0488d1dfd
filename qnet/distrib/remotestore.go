// The fleet's shared result store over HTTP: StoreServer exposes any
// simulate.Store (typically the coordinator's disk-backed Cache) as a
// tiny key/value API, and RemoteStore is the simulate.Store client
// workers point at it — so every worker's lookups and write-backs
// land in one warm store, and a shard reassigned after a worker death
// re-hits the points its previous owner already finished.

package distrib

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/qnet/simulate"
)

// storePath is the URL prefix of the store API's key endpoints.
const storePath = "/v1/store/"

// storeStatsPath is the URL of the store API's counters endpoint.
const storeStatsPath = "/v1/store/stats"

// maxResultBody bounds one Result body in either direction: what the
// server accepts on PUT and what RemoteStore reads back on GET.
// maxStatsBody bounds a stats body, like a worker's /v1/status.
const (
	maxResultBody = 1 << 20
	maxStatsBody  = 1 << 16
)

// parseKey parses the lowercase-hex wire form of a simulate.Key (the
// form Key.String prints).
func parseKey(s string) (simulate.Key, error) {
	var k simulate.Key
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(k) {
		return k, fmt.Errorf("distrib: bad store key %q", s)
	}
	copy(k[:], b)
	return k, nil
}

// StoreServer exposes a simulate.Store over HTTP:
//
//	GET /v1/store/{key}   -> 200 + JSON Result, or 404
//	PUT /v1/store/{key}   <- JSON Result, -> 204
//	GET /v1/store/stats   -> 200 + JSON CacheStats
//
// Mount its Handler on the coordinator (or any host the fleet can
// reach) and point workers at it with RemoteStore / Job.StoreURL.
type StoreServer struct {
	store simulate.Store
}

// NewStoreServer wraps a store for HTTP serving.
func NewStoreServer(st simulate.Store) *StoreServer {
	return &StoreServer{store: st}
}

// Handler returns the store API's http.Handler.
func (s *StoreServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(storePath, s.serveKey)
	return mux
}

// serveKey handles both key endpoints and the stats endpoint (which
// shares the /v1/store/ prefix).
func (s *StoreServer) serveKey(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == storeStatsPath && r.Method == http.MethodGet {
		writeJSON(w, s.store.Stats())
		return
	}
	key, err := parseKey(strings.TrimPrefix(r.URL.Path, storePath))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet:
		res, ok := s.store.Get(key)
		if !ok {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, res)
	case http.MethodPut:
		var res simulate.Result
		if err := json.NewDecoder(io.LimitReader(r.Body, maxResultBody)).Decode(&res); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.store.Put(key, res)
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// writeJSON writes v as a JSON response body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// DefaultStoreTimeout is the per-request deadline a RemoteStore uses
// unless WithStoreTimeout overrides it.
const DefaultStoreTimeout = 30 * time.Second

// RemoteStore is a simulate.Store backed by a StoreServer across the
// network.  Like every Store it is best-effort: an unreachable server
// turns Gets into misses and Puts into counted write errors, never
// into simulation failures — a partitioned worker degrades to
// re-simulating, exactly as if the store were cold.
//
// Every request carries the store's bound context (WithContext) plus a
// per-request timeout (WithStoreTimeout), so cancelling a shard's
// context aborts its in-flight store traffic instead of leaving it to
// a hardcoded client deadline.
type RemoteStore struct {
	base    string
	client  *http.Client
	timeout time.Duration
	ctx     context.Context
	stats   *storeStats // shared across WithContext views
}

// storeStats is a RemoteStore's traffic counters, shared by reference
// so every WithContext view feeds the same totals.
type storeStats struct {
	mu sync.Mutex
	s  simulate.CacheStats
}

// RemoteStore implements simulate.Store.
var _ simulate.Store = (*RemoteStore)(nil)

// RemoteStoreOption configures a RemoteStore.
type RemoteStoreOption func(*RemoteStore)

// WithStoreTimeout sets the per-request deadline for Get/Put/stats
// calls (default DefaultStoreTimeout).  Zero or negative disables the
// per-request deadline, leaving only the bound context in charge.
func WithStoreTimeout(d time.Duration) RemoteStoreOption {
	return func(rs *RemoteStore) { rs.timeout = d }
}

// WithStoreClient replaces the underlying http.Client (sharing a
// transport pool, adding instrumentation, ...).  The client's own
// Timeout stays zero-valued under RemoteStore's control; deadlines
// come from WithStoreTimeout and the bound context.
func WithStoreClient(c *http.Client) RemoteStoreOption {
	return func(rs *RemoteStore) { rs.client = c }
}

// NewRemoteStore builds a client of the store API rooted at base
// (e.g. "http://coordinator:9090").  A trailing slash is tolerated.
func NewRemoteStore(base string, opts ...RemoteStoreOption) *RemoteStore {
	rs := &RemoteStore{
		base:    strings.TrimSuffix(base, "/"),
		client:  &http.Client{},
		timeout: DefaultStoreTimeout,
		ctx:     context.Background(),
		stats:   &storeStats{},
	}
	for _, opt := range opts {
		opt(rs)
	}
	return rs
}

// WithContext returns a view of the store whose requests are children
// of ctx: cancelling ctx aborts in-flight Gets and Puts immediately.
// The view shares the parent's client, configuration and stats
// counters, so a worker can bind one fleet store to each job context.
func (rs *RemoteStore) WithContext(ctx context.Context) *RemoteStore {
	if ctx == nil {
		ctx = context.Background()
	}
	return &RemoteStore{
		base:    rs.base,
		client:  rs.client,
		timeout: rs.timeout,
		ctx:     ctx,
		stats:   rs.stats,
	}
}

// keyURL returns the endpoint of one key.
func (rs *RemoteStore) keyURL(k simulate.Key) string {
	return rs.base + storePath + k.String()
}

// requestCtx derives one request's context from the bound context and
// the per-request timeout.
func (rs *RemoteStore) requestCtx() (context.Context, context.CancelFunc) {
	ctx := rs.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if rs.timeout > 0 {
		return context.WithTimeout(ctx, rs.timeout)
	}
	return context.WithCancel(ctx)
}

// Get fetches the Result for the key; any transport or decode failure
// — including cancellation of the bound context — is a miss.
func (rs *RemoteStore) Get(k simulate.Key) (simulate.Result, bool) {
	ctx, cancel := rs.requestCtx()
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rs.keyURL(k), nil)
	if err != nil {
		return rs.miss()
	}
	resp, err := rs.client.Do(req)
	if err != nil {
		return rs.miss()
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return rs.miss()
	}
	// A body past the bound decodes truncated and counts as corrupt.
	var res simulate.Result
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxResultBody)).Decode(&res); err != nil {
		rs.stats.mu.Lock()
		rs.stats.s.CorruptEntries++
		rs.stats.mu.Unlock()
		return rs.miss()
	}
	rs.stats.mu.Lock()
	rs.stats.s.Hits++
	rs.stats.mu.Unlock()
	return res, true
}

// miss counts and returns a store miss.
func (rs *RemoteStore) miss() (simulate.Result, bool) {
	rs.stats.mu.Lock()
	rs.stats.s.Misses++
	rs.stats.mu.Unlock()
	return simulate.Result{}, false
}

// Put uploads the Result for the key, best effort; failures —
// including cancellation of the bound context — are counted in
// Stats().WriteErrors.
func (rs *RemoteStore) Put(k simulate.Key, res simulate.Result) {
	data, err := json.Marshal(res)
	if err != nil {
		rs.writeError()
		return
	}
	ctx, cancel := rs.requestCtx()
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, rs.keyURL(k), bytes.NewReader(data))
	if err != nil {
		rs.writeError()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rs.client.Do(req)
	if err != nil {
		rs.writeError()
		return
	}
	drainClose(resp.Body)
	if resp.StatusCode/100 != 2 {
		rs.writeError()
	}
}

// drainClose reads at most maxResultBody more bytes of a response body,
// so a small remainder leaves the connection reusable while an
// oversized one cannot hold the client, then closes it.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, maxResultBody))
	body.Close()
}

// writeError counts one failed Put.
func (rs *RemoteStore) writeError() {
	rs.stats.mu.Lock()
	rs.stats.s.WriteErrors++
	rs.stats.mu.Unlock()
}

// Stats returns this client's local traffic counters (its own hits,
// misses and write errors — not the server's aggregate; see
// ServerStats for that).  WithContext views share one counter set.
func (rs *RemoteStore) Stats() simulate.CacheStats {
	rs.stats.mu.Lock()
	defer rs.stats.mu.Unlock()
	return rs.stats.s
}

// ServerStats fetches the server-side aggregate counters of the
// backing store — the fleet-wide view, including the corrupt-entry
// count SummarizeStore surfaces.
func (rs *RemoteStore) ServerStats(ctx context.Context) (simulate.CacheStats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rs.base+storeStatsPath, nil)
	if err != nil {
		return simulate.CacheStats{}, err
	}
	resp, err := rs.client.Do(req)
	if err != nil {
		return simulate.CacheStats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return simulate.CacheStats{}, fmt.Errorf("distrib: store stats: %s", resp.Status)
	}
	var stats simulate.CacheStats
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxStatsBody)).Decode(&stats); err != nil {
		return simulate.CacheStats{}, err
	}
	return stats, nil
}
