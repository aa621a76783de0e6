package dash

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"cava/internal/chaos/leakcheck"
	"cava/internal/telemetry"
)

// TestProtectionCloseShedsAndDrainsQueue pins the admission stop path that
// the goroleak analyzer audits: a request parked in waitForSlot's poll loop
// must be shed (503 queue_full) when Close runs, Close must block until
// that goroutine has left the queue, and arrivals after Close — new
// sessions and established ones alike — are shed immediately. Runs on the
// real clock so the parked waiter genuinely sleeps between polls; the leak
// check proves Close left no goroutine behind.
func TestProtectionCloseShedsAndDrainsQueue(t *testing.T) {
	defer leakcheck.Check(t)()

	p := Protect(ProtectionConfig{
		MaxSessions:     1,
		QueueTimeoutSec: 30, // far beyond the test: Close, not the timeout, must free the waiter
		SessionIdleSec:  100,
	}, okHandler())
	reg := telemetry.NewRegistry()
	p.SetMetrics(reg)
	h := p.Handler()

	// The first session takes the only slot and keeps it (idle window is
	// far longer than the test).
	if w := reqAs(t, h, "alice", "/manifest.json"); w.Code != http.StatusOK {
		t.Fatalf("first session got %d, want 200", w.Code)
	}

	// A second session parks in the admission queue on its own goroutine.
	queued := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodGet, "/manifest.json", nil)
		r.Header.Set(SessionIDHeader, "bob")
		h.ServeHTTP(w, r)
		queued <- w
	}()
	waiting := func() float64 { return scrape(t, reg)["dash_admission_waiting_sessions"] }
	deadline := time.Now().Add(5 * time.Second)
	for waiting() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the second session to queue")
		}
		time.Sleep(time.Millisecond)
	}

	// Close drains the queue: when it returns, the waiter has already left
	// waitForSlot, so its 503 is on the channel (modulo handler epilogue).
	p.Close()
	var w *httptest.ResponseRecorder
	select {
	case w = <-queued:
	case <-time.After(5 * time.Second):
		t.Fatal("queued request did not finish after Close")
	}
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("queued session got %d after Close, want 503", w.Code)
	}
	if ra, want := w.Header().Get("Retry-After"), strconv.Itoa(ShedRetryAfterSec); ra != want {
		t.Fatalf("Retry-After = %q, want %q", ra, want)
	}
	if got := waiting(); got != 0 {
		t.Fatalf("waiting gauge = %v after Close, want 0", got)
	}

	// After Close everything is shed without queueing — a brand-new
	// session and the previously established one alike.
	if w := reqAs(t, h, "carol", "/manifest.json"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("new session after Close got %d, want 503", w.Code)
	}
	if w := reqAs(t, h, "alice", "/seg/0/0"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("established session after Close got %d, want 503", w.Code)
	}

	st := p.AdmissionStats()
	if st.Admitted != 1 || st.ShedQueueFull != 3 {
		t.Fatalf("stats = %+v, want 1 admitted and 3 queue-full sheds", st)
	}

	// Close is idempotent.
	p.Close()
}
