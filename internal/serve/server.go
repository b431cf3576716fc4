package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"
)

// unavailableResponse is the structured body of a 503: a jittered client
// backoff hint mirroring the Retry-After header at millisecond
// resolution.
type unavailableResponse struct {
	Error        string `json:"error"`
	RetryAfterMS int    `json:"retryAfterMS,omitempty"`
}

// retryAfterHint picks the jittered backoff hint for a 503: between one
// and two base intervals, uniformly, so a synchronized burst of shed
// clients does not return as a synchronized burst of retries. The
// jitter draws from the engine's labeled "retry-after" stream
// (Config.RetrySeed), so overload behaviour is reproducible in tests
// and replay.
func (e *Engine) retryAfterHint(base time.Duration) (header string, ms int) {
	e.retryMu.Lock()
	f := 1 + e.retryRng.Float64()
	e.retryMu.Unlock()
	d := time.Duration(f * float64(base))
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs), int(d / time.Millisecond)
}

// WriteUnavailable emits the 503 overload contract (draining, stopped,
// or ingest saturation): Retry-After header plus the structured JSON
// body with the millisecond hint, jittered from the engine's seeded
// stream. The cluster handler answers every 503 through shard 0's.
func (e *Engine) WriteUnavailable(w http.ResponseWriter, err error) {
	header, ms := e.retryAfterHint(500 * time.Millisecond)
	w.Header().Set("Retry-After", header)
	WriteJSON(w, http.StatusServiceUnavailable, unavailableResponse{Error: err.Error(), RetryAfterMS: ms})
}

// WriteJSON writes v as the JSON body of a response with the given
// status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
