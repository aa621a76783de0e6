package dash

import (
	"context"
	"encoding/json"
	"errors"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cava/internal/core"
	"cava/internal/player"
)

// Golden digests of the testbed client. Each constant is an FNV-64a hash
// of the JSON encoding of one session's whole player.Result, so any change
// to the requests the client makes, the fault handling or the session
// accounting moves it. The fault-free fail-fast and resilient sessions
// share one digest: on a clean link both policies make the same requests.
var goldenClient = map[string]uint64{
	"fail-fast/none":      0x5294488894be3237,
	"resilient/none":      0x5294488894be3237,
	"resilient/transient": 0xd28703997ea2dee8,
	"resilient/outage":    0x96038a72feac31ae,
	"resilient/lossy":     0x9afc03621dbc29fb,
}

const (
	goldenLinkBps = 3e6
	// goldenScale keeps the smallest per-attempt deadline (4 virtual
	// seconds) at 40 ms of wall time, far above an in-process fetch even
	// under the race detector.
	goldenScale = 100
)

// linkTransport serves a handler in-process and, after each response,
// advances a fake clock by the body's transfer time over a goldenLinkBps
// link, so the session's virtual time is a pure function of the bytes
// delivered. A handler that aborts the connection (http.ErrAbortHandler,
// the fault injector's reset) surfaces as a transport error.
type linkTransport struct {
	h   http.Handler
	clk *FakeClock
}

func (lt *linkTransport) RoundTrip(req *http.Request) (resp *http.Response, err error) {
	rec := httptest.NewRecorder()
	defer func() {
		if p := recover(); p != nil {
			if p != http.ErrAbortHandler {
				panic(p)
			}
			resp, err = nil, errors.New("connection reset by handler")
		}
	}()
	lt.h.ServeHTTP(rec, req)
	sec := float64(rec.Body.Len()) * 8 / goldenLinkBps / goldenScale
	lt.clk.Advance(time.Duration(sec * float64(time.Second)))
	return rec.Result(), nil
}

// goldenSession streams 40 CAVA chunks of testVideo over the fake link,
// behind the named fault profile (seed 7).
func goldenSession(t *testing.T, resilient bool, profile string) (*player.Result, error) {
	t.Helper()
	clk := NewFakeClock(time.Unix(0, 0))
	h, err := NewFaultInjector(profile, 7, goldenScale, NewServer(testVideo()).Handler())
	if err != nil {
		t.Fatal(err)
	}
	h.WithClock(clk)
	cfg := ClientConfig{
		BaseURL:      "http://origin.test",
		HTTPClient:   &http.Client{Transport: &linkTransport{h: h, clk: clk}},
		NewAlgorithm: core.Factory(),
		TimeScale:    goldenScale,
		MaxChunks:    40,
		Resilient:    resilient,
		Clock:        clk,
	}
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c.Run(context.Background())
}

func resultDigest(t *testing.T, r *player.Result) uint64 {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// TestClientGoldenDigest pins the testbed client's sessions bit for bit on
// a deterministic link: the fetch policy, retries, skips and every
// accounting field of the Result. The fail-fast client must abort on the
// first injected fault and name it.
func TestClientGoldenDigest(t *testing.T) {
	for name, want := range goldenClient {
		mode, profile, _ := strings.Cut(name, "/")
		res, err := goldenSession(t, mode == "resilient", profile)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got := resultDigest(t, res); got != want {
			t.Errorf("%s: digest %#016x, want %#016x", name, got, want)
		}
	}
	_, err := goldenSession(t, false, "transient")
	if err == nil || !strings.Contains(err.Error(), "segment 2/1") ||
		!errors.Is(err, errTruncated) {
		t.Errorf("fail-fast under transient: %v; want the truncation of segment 2/1", err)
	}
}
