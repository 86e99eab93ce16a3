package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// heldServer returns a server whose every simulation slot is held, so a
// run that passes validation queues and nothing simulates.
func heldServer(opts Options) *Server {
	srv := New(opts)
	for i := 0; i < cap(srv.sem); i++ {
		srv.sem <- struct{}{}
	}
	return srv
}

// serveDirect sends one request straight to h, so a handler panic fails
// the fuzz target instead of being recovered by net/http.
func serveDirect(ctx context.Context, h http.Handler, method, target string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)).WithContext(ctx))
	return rec
}

// requireNamedRejection fails unless rec is a 4xx whose JSON body names the
// problem.
func requireNamedRejection(t *testing.T, rec *httptest.ResponseRecorder, body []byte) {
	t.Helper()
	var got struct{ Error string }
	if rec.Code < 400 || rec.Code >= 500 || json.Unmarshal(rec.Body.Bytes(), &got) != nil || got.Error == "" {
		t.Fatalf("body %q: status %d %q, want a 4xx naming the problem", body, rec.Code, rec.Body)
	}
}

func requireHealthy(t *testing.T, h http.Handler) {
	t.Helper()
	if rec := serveDirect(context.Background(), h, http.MethodGet, "/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", rec.Code)
	}
}

// FuzzRunRequest: any POST /runs body either gets a 4xx naming the problem,
// or passes validation and queues for a simulation slot; it never panics,
// and /healthz answers afterwards. Every slot is held, so nothing
// simulates: an accepted run is canceled while queued, which never takes a
// slot. A body asking to wait would block on the held slots, so the target
// skips it. The seed corpus (testdata/fuzz/FuzzRunRequest) holds the
// bodies the serve tests send: the 400s and the 404, and accepted specs.
func FuzzRunRequest(f *testing.F) {
	srv := heldServer(Options{MaxWorkers: 2})
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		var req createRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil && req.Wait {
			t.Skip("wait would block on the held slots")
		}
		rec := serveDirect(context.Background(), h, http.MethodPost, "/runs", body)
		if rec.Code != http.StatusAccepted {
			requireNamedRejection(t, rec, body)
		} else {
			var view runView
			if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil || view.Status != "queued" {
				t.Fatalf("body %q: accepted as %q (%v), want queued", body, view.Status, err)
			}
			srv.mu.Lock()
			rn := srv.runs[view.ID]
			srv.mu.Unlock()
			if c := serveDirect(context.Background(), h, http.MethodPost, "/runs/"+view.ID+"/cancel", nil); c.Code != http.StatusOK {
				t.Fatalf("cancel %s = %d, want 200", view.ID, c.Code)
			}
			<-rn.finished
			srv.mu.Lock()
			status := rn.status
			srv.mu.Unlock()
			if status != "canceled" {
				t.Fatalf("body %q: canceled queued run ended %q", body, status)
			}
		}
		requireHealthy(t, h)
	})
}
