package dash

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"cava/internal/video"
)

// TestVideoMuxRoutes checks the multi-video origin namespace: /v/<id>/
// routes to that video's server, bare paths serve the default video, and
// unknown ids 404.
func TestVideoMuxRoutes(t *testing.T) {
	v1 := testVideo()
	v2 := video.FFmpegVideo(video.Title{Name: "BBB", Genre: video.Animation}, video.H264)
	mux, err := NewVideoMux(NewServer(v1), NewServer(v2))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(mux.Handler())
	defer srv.Close()

	fetch := func(path string) (int, *Manifest) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			return resp.StatusCode, nil
		}
		m, err := DecodeManifest(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, m
	}

	if _, m := fetch("/manifest.json"); m == nil || m.VideoID != v1.ID() {
		t.Errorf("default manifest = %+v, want video %s", m, v1.ID())
	}
	if _, m := fetch("/v/" + v2.ID() + "/manifest.json"); m == nil || m.VideoID != v2.ID() {
		t.Errorf("prefixed manifest = %+v, want video %s", m, v2.ID())
	}
	if code, _ := fetch("/v/nope/manifest.json"); code != http.StatusNotFound {
		t.Errorf("unknown video id = %d, want 404", code)
	}

	// Segments resolve under the prefix too.
	resp, err := http.Get(srv.URL + "/v/" + v2.ID() + SegmentURL(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("prefixed segment = %d, want 200", resp.StatusCode)
	}

	if _, err := NewVideoMux(); err == nil {
		t.Error("empty VideoMux accepted")
	}
	if _, err := NewVideoMux(NewServer(v1), NewServer(v1)); err == nil {
		t.Error("duplicate video accepted")
	}
}
