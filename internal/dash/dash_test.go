package dash

import (
	"bytes"
	"context"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cava/internal/abr"
	"cava/internal/chaos/leakcheck"
	"cava/internal/core"
	"cava/internal/trace"
	"cava/internal/video"
)

func testVideo() *video.Video {
	return video.FFmpegVideo(video.Title{Name: "ED", Genre: video.SciFi}, video.H264)
}

func TestManifestRoundTrip(t *testing.T) {
	v := testVideo()
	m := BuildManifest(v)
	if err := m.Validate(); err != nil {
		t.Fatalf("built manifest invalid: %v", err)
	}
	var buf bytes.Buffer
	if err := m.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.VideoID != v.ID() || got.ChunkDurSec != v.ChunkDurSec || len(got.Tracks) != v.NumTracks() {
		t.Errorf("round-trip mismatch: %+v", got)
	}
	if got.NumSegments() != v.NumChunks() {
		t.Errorf("segments = %d, want %d", got.NumSegments(), v.NumChunks())
	}
	for li := range got.Tracks {
		for ci, s := range got.Tracks[li].SegmentBits {
			if s != v.ChunkSize(li, ci) {
				t.Fatalf("segment size mismatch at %d/%d", li, ci)
			}
		}
	}
}

func TestManifestValidation(t *testing.T) {
	v := testVideo()
	m := BuildManifest(v)
	m.ChunkDurSec = 0
	if m.Validate() == nil {
		t.Error("zero chunk duration validated")
	}
	m = BuildManifest(v)
	m.Tracks[1].SegmentBits = m.Tracks[1].SegmentBits[:3]
	if m.Validate() == nil {
		t.Error("mismatched segment counts validated")
	}
	m = BuildManifest(v)
	m.Tracks[0].SegmentBits[0] = -1
	if m.Validate() == nil {
		t.Error("negative segment size validated")
	}
	if (&Manifest{ChunkDurSec: 2}).Validate() == nil {
		t.Error("trackless manifest validated")
	}
}

func TestManifestToVideo(t *testing.T) {
	v := testVideo()
	view := BuildManifest(v).ToVideo()
	if err := view.Validate(); err != nil {
		t.Fatalf("client view invalid: %v", err)
	}
	if view.NumChunks() != v.NumChunks() || view.NumTracks() != v.NumTracks() {
		t.Fatal("dimensions lost")
	}
	for li := range view.Tracks {
		if math.Abs(view.AvgBitrateBps(li)-v.AvgBitrateBps(li))/v.AvgBitrateBps(li) > 1e-9 {
			t.Errorf("track %d average bitrate drifted", li)
		}
	}
	// CAVA must be constructible from the client view alone.
	algo := core.New(view)
	if got := algo.Select(abr.State{ChunkIndex: 0, Est: 2e6, Buffer: 20}); got < 0 || got >= view.NumTracks() {
		t.Errorf("CAVA on client view selected %d", got)
	}
}

func TestServerEndpoints(t *testing.T) {
	v := testVideo()
	srv := httptest.NewServer(NewServer(v).Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeManifest(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("manifest decode: %v", err)
	}
	if m.VideoID != v.ID() {
		t.Errorf("manifest video = %s", m.VideoID)
	}

	// A segment must have exactly ceil(bits/8) bytes.
	resp, err = http.Get(srv.URL + SegmentURL(3, 7))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := int(v.ChunkSize(3, 7)+7) / 8
	if len(body) != want {
		t.Errorf("segment bytes = %d, want %d", len(body), want)
	}

	// Errors.
	for _, path := range []string{"/seg/9/0", "/seg/0/99999", "/seg/x/0", "/seg/0"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("path %s unexpectedly succeeded", path)
		}
	}
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/manifest.json", nil)
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST manifest status %d", resp.StatusCode)
	}
}

func TestShaperRate(t *testing.T) {
	// 8 Mbps link, scale 20: 1 MB should take ~1/20 * 1s wall.
	tr := trace.Constant("c", 8e6, 600, 1)
	s := NewShaper(tr, 20)
	start := time.Now()
	total := 0
	for total < 1_000_000 {
		n := 32 << 10
		s.Wait(n)
		total += n
	}
	wall := time.Since(start).Seconds()
	// Expected: 1e6 bytes at 8e6*20/8 = 2e7 B/s -> 50 ms.
	if wall < 0.03 || wall > 0.25 {
		t.Errorf("1MB over shaped link took %.3fs wall, want ~0.05s", wall)
	}
}

func TestShaperHonorsOutage(t *testing.T) {
	tr := &trace.Trace{ID: "o", IntervalSec: 1, Samples: []float64{0, 8e6}}
	s := NewShaper(tr, 10)
	start := time.Now()
	s.Wait(100_000) // must wait out the 0.1 s (virtual 1 s) outage
	if wall := time.Since(start).Seconds(); wall < 0.08 {
		t.Errorf("outage not enforced: %.3fs", wall)
	}
}

func TestEndToEndStreaming(t *testing.T) {
	if testing.Short() {
		t.Skip("live streaming test")
	}
	defer leakcheck.Check(t)()
	v := testVideo()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const scale = 120
	shaped := NewShapedListener(ln, NewShaper(trace.Constant("c", 3e6, 1200, 1), scale))
	hsrv := NewHTTPServer(NewServer(v).Handler())
	go hsrv.Serve(shaped)
	defer hsrv.Close()

	client, err := NewClient(ClientConfig{
		BaseURL:      "http://" + ln.Addr().String(),
		NewAlgorithm: core.Factory(),
		TimeScale:    scale,
		MaxChunks:    60,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := client.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chunks) != 60 {
		t.Fatalf("streamed %d chunks, want 60", len(res.Chunks))
	}
	if res.Scheme != "CAVA" {
		t.Errorf("scheme = %s", res.Scheme)
	}
	// On a constant 3 Mbps (virtual) link the client must converge above
	// the bottom track and observe roughly the shaped throughput.
	lastLevels := res.Chunks[40:]
	sum := 0
	for _, c := range lastLevels {
		sum += c.Level
	}
	if avg := float64(sum) / float64(len(lastLevels)); avg < 1.5 {
		t.Errorf("late average level %.2f on a 3 Mbps link; adaptation failed", avg)
	}
	// Aggregate throughput over substantial downloads only: tiny segments
	// ride the token-bucket burst and report inflated rates, exactly like
	// short transfers over a real shaped link.
	var bits, secs float64
	for _, c := range res.Chunks {
		if c.DownloadSec > 1 { // virtual seconds
			bits += c.SizeBits
			secs += c.DownloadSec
		}
	}
	if secs > 5 {
		if agg := bits / secs; agg < 1.5e6 || agg > 4.5e6 {
			t.Errorf("aggregate virtual throughput %.2f Mbps, want ~3", agg/1e6)
		}
	}
	if res.TotalRebufferSec > 5 {
		t.Errorf("rebuffered %.1f virtual seconds on an ample link", res.TotalRebufferSec)
	}
}

func TestClientConfigValidation(t *testing.T) {
	if _, err := NewClient(ClientConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := NewClient(ClientConfig{BaseURL: "http://x"}); err == nil {
		t.Error("missing factory accepted")
	}
	c, err := NewClient(ClientConfig{BaseURL: "http://x", NewAlgorithm: core.Factory()})
	if err != nil {
		t.Fatal(err)
	}
	if c.cfg.TimeScale != 1 || c.cfg.HTTPClient == nil {
		t.Errorf("defaults not applied: %+v", c.cfg)
	}
}

func TestParseSegmentPath(t *testing.T) {
	tr, idx, err := parseSegmentPath("/seg/4/123")
	if err != nil || tr != 4 || idx != 123 {
		t.Errorf("parse = %d,%d,%v", tr, idx, err)
	}
	for _, bad := range []string{"/seg/", "/seg/1", "/seg/a/2", "/seg/1/b", "/seg/1/2/3"} {
		if _, _, err := parseSegmentPath(bad); err == nil {
			t.Errorf("path %q parsed", bad)
		}
	}
}
