package dash

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// payloadHandler writes n deterministic bytes with a Content-Length header,
// like the segment server does.
func payloadHandler(n int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(n))
		buf := make([]byte, 4<<10)
		for i := range buf {
			buf[i] = byte(i)
		}
		for left := n; left > 0; {
			c := left
			if c > len(buf) {
				c = len(buf)
			}
			if _, err := w.Write(buf[:c]); err != nil {
				return
			}
			left -= c
		}
	})
}

func TestDrawDeterministicAndSaltSensitive(t *testing.T) {
	a := draw(7, "/seg/1/2", 0, 1)
	b := draw(7, "/seg/1/2", 0, 1)
	if a != b {
		t.Fatalf("draw not deterministic: %v vs %v", a, b)
	}
	if a < 0 || a >= 1 {
		t.Fatalf("draw out of [0,1): %v", a)
	}
	if draw(7, "/seg/1/2", 0, 2) == a {
		t.Error("different salts should decorrelate")
	}
	if draw(7, "/seg/1/2", 1, 1) == a {
		t.Error("different attempts should decorrelate")
	}
	if draw(8, "/seg/1/2", 0, 1) == a {
		t.Error("different seeds should decorrelate")
	}
}

// TestInjectorScheduleDeterminism replays the same request sequence against
// two injectors with equal seeds and demands identical fault decisions,
// and a different seed must eventually diverge.
func TestInjectorScheduleDeterminism(t *testing.T) {
	sequence := func(seed int64) []int {
		inj := newFaultInjector(faultConfig{Seed: seed, ErrorProb: 0.4},
			http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(http.StatusOK)
			}))
		var codes []int
		for i := 0; i < 30; i++ {
			path := fmt.Sprintf("/seg/0/%d", i%10) // 3 attempts per path
			req := httptest.NewRequest(http.MethodGet, path, nil)
			rr := httptest.NewRecorder()
			inj.ServeHTTP(rr, req)
			codes = append(codes, rr.Code)
		}
		return codes
	}
	a, b, c := sequence(11), sequence(11), sequence(12)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed diverged:\n%v\n%v", a, b)
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Error("different seeds produced identical schedules (suspicious)")
	}
	saw := map[int]bool{}
	for _, code := range a {
		saw[code] = true
	}
	if !saw[http.StatusOK] || !saw[http.StatusServiceUnavailable] {
		t.Errorf("ErrorProb 0.4 over 30 requests should mix 200s and 503s, got %v", a)
	}
}

func TestInjectorOutageWindow(t *testing.T) {
	inj := newFaultInjector(faultConfig{
		Outages:   []outageWindow{{StartSec: 0, EndSec: 0.15}},
		TimeScale: 1,
	}, payloadHandler(64))

	rr := httptest.NewRecorder()
	inj.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/seg/0/0", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("inside outage window got %d, want 503", rr.Code)
	}
	time.Sleep(200 * time.Millisecond)
	rr = httptest.NewRecorder()
	inj.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/seg/0/0", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("after outage window got %d, want 200", rr.Code)
	}
	st := inj.Stats()
	if st.OutageRejections != 1 || st.Requests != 2 {
		t.Errorf("stats = %+v, want 1 outage rejection of 2 requests", st)
	}
}

func TestInjectorOutageWindowBoundaries(t *testing.T) {
	// The window is half-open [StartSec, EndSec): a request at exactly
	// StartSec is refused, a request at exactly EndSec is served. Pinned on
	// a FakeClock so the boundary instants are exact, not sleep-raced.
	fc := NewFakeClock(time.Unix(50, 0))
	inj := newFaultInjector(faultConfig{
		Outages:   []outageWindow{{StartSec: 10, EndSec: 20}},
		TimeScale: 1,
	}, payloadHandler(8)).WithClock(fc)
	get := func() int {
		rr := httptest.NewRecorder()
		inj.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/seg/0/0", nil))
		return rr.Code
	}

	// The first request anchors virtual time zero — before the window.
	if code := get(); code != http.StatusOK {
		t.Fatalf("before window got %d, want 200", code)
	}
	fc.Advance(10 * time.Second) // vt == StartSec: first faulted instant
	if code := get(); code != http.StatusServiceUnavailable {
		t.Fatalf("at window start got %d, want 503", code)
	}
	fc.Advance(9999 * time.Millisecond) // vt = 19.999: last instant inside
	if code := get(); code != http.StatusServiceUnavailable {
		t.Fatalf("just before window end got %d, want 503", code)
	}
	fc.Advance(time.Millisecond) // vt == EndSec: first clean instant
	if code := get(); code != http.StatusOK {
		t.Fatalf("at window end got %d, want 200", code)
	}
	if st := inj.Stats(); st.OutageRejections != 2 || st.Requests != 4 {
		t.Errorf("stats = %+v, want 2 outage rejections of 4 requests", st)
	}
}

func TestInjectorZeroLengthOutageWindow(t *testing.T) {
	// [x, x) is empty: the injector must never match it.
	fc := NewFakeClock(time.Unix(50, 0))
	inj := newFaultInjector(faultConfig{
		Outages:   []outageWindow{{StartSec: 2, EndSec: 2}},
		TimeScale: 1,
	}, payloadHandler(8)).WithClock(fc)
	rr := httptest.NewRecorder()
	inj.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/seg/0/0", nil))
	fc.Advance(2 * time.Second) // vt exactly at the empty window's instant
	rr2 := httptest.NewRecorder()
	inj.ServeHTTP(rr2, httptest.NewRequest(http.MethodGet, "/seg/0/0", nil))
	if rr.Code != http.StatusOK || rr2.Code != http.StatusOK {
		t.Errorf("codes = %d, %d; want 200, 200", rr.Code, rr2.Code)
	}
	if st := inj.Stats(); st.OutageRejections != 0 {
		t.Errorf("empty window rejected %d requests", st.OutageRejections)
	}
}

func TestInjectorTruncationShortensBody(t *testing.T) {
	const size = 100 << 10
	srv := httptest.NewServer(newFaultInjector(faultConfig{
		TruncateProb: 1,
	}, payloadHandler(size)))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/seg/0/0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.ContentLength != size {
		t.Fatalf("declared length %d, want %d (truncation must keep the declared size)",
			resp.ContentLength, size)
	}
	n, err := io.Copy(io.Discard, resp.Body)
	if err == nil && n == size {
		t.Fatal("truncated response delivered the full body")
	}
	if n >= size {
		t.Fatalf("read %d bytes of a truncated %d-byte body", n, size)
	}
}

func TestInjectorConnectionReset(t *testing.T) {
	srv := httptest.NewServer(newFaultInjector(faultConfig{ResetProb: 1},
		payloadHandler(1<<10)))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/seg/0/0")
	if err == nil {
		defer resp.Body.Close()
		if _, cerr := io.Copy(io.Discard, resp.Body); cerr == nil {
			t.Fatal("reset-injected request delivered a full response")
		}
	}
}

func TestInjectorSegmentsOnlyLeavesManifestAlone(t *testing.T) {
	inj := newFaultInjector(faultConfig{ErrorProb: 1}, payloadHandler(8))
	rr := httptest.NewRecorder()
	inj.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/manifest.json", nil))
	if rr.Code != http.StatusOK {
		t.Errorf("manifest request faulted: %d", rr.Code)
	}
	rr = httptest.NewRecorder()
	inj.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/seg/0/0", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Errorf("segment request not faulted: %d", rr.Code)
	}
}

func TestFaultProfiles(t *testing.T) {
	for _, name := range FaultProfileNames() {
		inj, err := NewFaultInjector(name, 3, 60, payloadHandler(8))
		if err != nil {
			t.Fatalf("profile %s: %v", name, err)
		}
		if name == "none" && inj.Active() {
			t.Error("profile none injects faults")
		}
		if name != "none" && !inj.Active() {
			t.Errorf("profile %s injects nothing", name)
		}
	}
	if _, err := NewFaultInjector("blizzard", 1, 1, payloadHandler(8)); err == nil {
		t.Error("unknown profile accepted")
	}
}
