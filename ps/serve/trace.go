package serve

import (
	"fmt"
	"net/http"
	"sync"

	"repro/ps"
)

// maxStoredTraces bounds the retained trace handles; the oldest is
// evicted when a new traced run lands.
const maxStoredTraces = 32

// traceStore retains the most recent traced runs' handles, keyed by
// request ID, for later export through GET /v1/trace.
type traceStore struct {
	mu    sync.Mutex
	byID  map[string]*ps.Trace
	order []string // insertion order, oldest first
}

func newTraceStore() *traceStore {
	return &traceStore{byID: make(map[string]*ps.Trace)}
}

func (ts *traceStore) put(id string, tr *ps.Trace) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if _, ok := ts.byID[id]; !ok {
		ts.order = append(ts.order, id)
		if len(ts.order) > maxStoredTraces {
			delete(ts.byID, ts.order[0])
			ts.order = ts.order[1:]
		}
	}
	ts.byID[id] = tr
}

func (ts *traceStore) get(id string) (*ps.Trace, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	tr, ok := ts.byID[id]
	return tr, ok
}

// handleTrace exports a retained trace as Chrome trace-event JSON,
// loadable in Perfetto and chrome://tracing.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		s.fail(w, http.StatusBadRequest, "id query parameter is required")
		return
	}
	tr, ok := s.traces.get(id)
	if !ok {
		s.fail(w, http.StatusNotFound, fmt.Sprintf("no retained trace %q (the server keeps the most recent %d)", id, maxStoredTraces))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if err := tr.WriteChrome(w); err != nil {
		// Headers are out; nothing more to do.
		_ = err
	}
}
