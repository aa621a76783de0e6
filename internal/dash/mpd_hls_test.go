package dash

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestMPDRoundTrip(t *testing.T) {
	v := testVideo()
	m := BuildManifest(v)
	var buf bytes.Buffer
	if err := WriteMPD(&buf, m); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "urn:mpeg:dash:schema:mpd:2011") {
		t.Error("MPD missing schema namespace")
	}
	got, err := ReadMPD(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.VideoID != m.VideoID {
		t.Errorf("VideoID = %q, want %q", got.VideoID, m.VideoID)
	}
	if got.ChunkDurSec != m.ChunkDurSec || len(got.Tracks) != len(m.Tracks) {
		t.Fatalf("structure lost: dur=%v tracks=%d", got.ChunkDurSec, len(got.Tracks))
	}
	for li := range got.Tracks {
		if got.Tracks[li].Height != m.Tracks[li].Height {
			t.Errorf("track %d height mismatch", li)
		}
		if len(got.Tracks[li].SegmentBits) != len(m.Tracks[li].SegmentBits) {
			t.Fatalf("track %d segment count mismatch", li)
		}
		for ci := range got.Tracks[li].SegmentBits {
			// Sizes are rounded to whole bits in the descriptor.
			if math.Abs(got.Tracks[li].SegmentBits[ci]-m.Tracks[li].SegmentBits[ci]) > 0.5 {
				t.Fatalf("track %d segment %d size drifted", li, ci)
			}
		}
	}
	// The reconstructed manifest must still drive a client view.
	if err := got.ToVideo().Validate(); err != nil {
		t.Errorf("client view from MPD invalid: %v", err)
	}
}

func TestMPDErrors(t *testing.T) {
	if _, err := ReadMPD(strings.NewReader("not xml")); err == nil {
		t.Error("garbage accepted as MPD")
	}
	if _, err := ReadMPD(strings.NewReader(`<?xml version="1.0"?><MPD><Period id="0" duration="PT1S"></Period></MPD>`)); err == nil {
		t.Error("MPD without adaptation sets accepted")
	}
	// Inconsistent declared duration.
	v := testVideo()
	var buf bytes.Buffer
	if err := WriteMPD(&buf, BuildManifest(v)); err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(buf.String(), `mediaPresentationDuration="PT600S"`,
		`mediaPresentationDuration="PT9S"`, 1)
	if !strings.Contains(buf.String(), `PT600S`) {
		t.Skip("duration attribute format changed")
	}
	if _, err := ReadMPD(strings.NewReader(bad)); err == nil {
		t.Error("inconsistent MPD duration accepted")
	}
}

func TestISODuration(t *testing.T) {
	cases := map[string]float64{
		"PT600S":    600,
		"PT10M":     600,
		"PT1H10M5S": 4205,
		"PT2.5S":    2.5,
		"PT1H":      3600,
	}
	for in, want := range cases {
		got, err := parseISODuration(in)
		if err != nil || got != want {
			t.Errorf("parseISODuration(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "600", "PTXS", "PT5X"} {
		if _, err := parseISODuration(bad); err == nil {
			t.Errorf("parseISODuration(%q) accepted", bad)
		}
	}
	if isoDuration(600) != "PT600S" {
		t.Errorf("isoDuration(600) = %s", isoDuration(600))
	}
}

// goldenManifest is a two-track, two-segment manifest small enough to
// spell out its playlists in full.
func goldenManifest() *Manifest {
	return &Manifest{
		VideoID:     "tiny",
		ChunkDurSec: 2.5,
		FPS:         24,
		Tracks: []ManifestTrack{
			{ID: 0, Resolution: "144p", Width: 256, Height: 144,
				DeclaredBitrateBps: 100e3, PeakBitrateBps: 150e3, SegmentBits: []float64{250e3, 375e3}},
			{ID: 1, Resolution: "240p", Width: 426, Height: 240,
				DeclaredBitrateBps: 200.4e3, PeakBitrateBps: 300.6e3, SegmentBits: []float64{500e3, 751.5e3}},
		},
	}
}

// TestHLSMasterGolden pins the master playlist's exact bytes.
func TestHLSMasterGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHLSMaster(&buf, goldenManifest()); err != nil {
		t.Fatal(err)
	}
	want := `#EXTM3U
#EXT-X-VERSION:7
## video tiny
#EXT-X-STREAM-INF:BANDWIDTH=150000,AVERAGE-BANDWIDTH=100000,RESOLUTION=256x144,FRAME-RATE=24.000
track_0.m3u8
#EXT-X-STREAM-INF:BANDWIDTH=300600,AVERAGE-BANDWIDTH=200400,RESOLUTION=426x240,FRAME-RATE=24.000
track_1.m3u8
`
	if got := buf.String(); got != want {
		t.Errorf("master playlist:\n%s\nwant:\n%s", got, want)
	}
}

// TestHLSMediaGolden pins a media playlist's exact bytes, including the
// per-segment EXT-X-BITRATE tags (kbps, rounded) that carry VBR sizes.
func TestHLSMediaGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHLSMedia(&buf, goldenManifest(), 1); err != nil {
		t.Fatal(err)
	}
	want := `#EXTM3U
#EXT-X-VERSION:7
#EXT-X-TARGETDURATION:3
#EXT-X-MEDIA-SEQUENCE:0
#EXT-X-PLAYLIST-TYPE:VOD
#EXT-X-BITRATE:200
#EXTINF:2.500,
seg/1/0
#EXT-X-BITRATE:301
#EXTINF:2.500,
seg/1/1
#EXT-X-ENDLIST
`
	if got := buf.String(); got != want {
		t.Errorf("media playlist:\n%s\nwant:\n%s", got, want)
	}
}

func TestWriteHLSMediaBadTrack(t *testing.T) {
	m := BuildManifest(testVideo())
	var buf bytes.Buffer
	if err := WriteHLSMedia(&buf, m, 99); err == nil {
		t.Error("out-of-range track accepted")
	}
}

func TestServerServesMPDAndHLS(t *testing.T) {
	v := testVideo()
	srv := httptest.NewServer(NewServer(v).Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/manifest.mpd")
	if err != nil {
		t.Fatal(err)
	}
	m, err := ReadMPD(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("served MPD unreadable: %v", err)
	}
	if m.NumSegments() != v.NumChunks() {
		t.Error("served MPD lost segments")
	}

	// The playlists are served exactly as the writers render them.
	var want bytes.Buffer
	if err := WriteHLSMaster(&want, BuildManifest(v)); err != nil {
		t.Fatal(err)
	}
	if code, got := get(t, srv.URL+"/master.m3u8"); code != http.StatusOK || got != want.String() {
		t.Errorf("served master playlist (status %d) differs from WriteHLSMaster:\n%s", code, got)
	}
	want.Reset()
	if err := WriteHLSMedia(&want, BuildManifest(v), 2); err != nil {
		t.Fatal(err)
	}
	if code, got := get(t, srv.URL+"/track_2.m3u8"); code != http.StatusOK || got != want.String() {
		t.Errorf("served media playlist (status %d) differs from WriteHLSMedia:\n%s", code, got)
	}

	resp, _ = http.Get(srv.URL + "/track_99.m3u8")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("bogus media playlist status %d", resp.StatusCode)
	}
}
