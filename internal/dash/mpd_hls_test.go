package dash

import (
	"bytes"
	"encoding/xml"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// TestMPDRoundTrip decodes a full video's MPD with encoding/xml and checks
// that every representation carries its track and every segment size (in
// whole bits) through the segment-sizes descriptor.
func TestMPDRoundTrip(t *testing.T) {
	m := BuildManifest(testVideo())
	var buf bytes.Buffer
	if err := WriteMPD(&buf, m); err != nil {
		t.Fatal(err)
	}
	var doc mpdXML
	if err := xml.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Xmlns != "urn:mpeg:dash:schema:mpd:2011" || len(doc.Period.AdaptationSets) != 1 {
		t.Fatalf("MPD structure: xmlns %q, %d adaptation sets", doc.Xmlns, len(doc.Period.AdaptationSets))
	}
	reps := doc.Period.AdaptationSets[0].Representations
	if len(reps) != len(m.Tracks) {
		t.Fatalf("%d representations, want %d", len(reps), len(m.Tracks))
	}
	for i, rep := range reps {
		tr := m.Tracks[i]
		if rep.ID != strconv.Itoa(tr.ID) || rep.Height != tr.Height ||
			float64(rep.SegmentTemplate.Duration) != m.ChunkDurSec*float64(rep.SegmentTemplate.Timescale) {
			t.Errorf("representation %d = %+v, want track %+v", i, rep, tr)
		}
		if rep.Supplemental[0].SchemeIDURI != segmentSizesScheme {
			t.Fatalf("representation %d: first descriptor %q", i, rep.Supplemental[0].SchemeIDURI)
		}
		sizes := strings.Split(rep.Supplemental[0].Value, ",")
		if len(sizes) != len(tr.SegmentBits) {
			t.Fatalf("representation %d: %d sizes, want %d", i, len(sizes), len(tr.SegmentBits))
		}
		for ci, sz := range sizes {
			if want := strconv.FormatInt(int64(math.Round(tr.SegmentBits[ci])), 10); sz != want {
				t.Fatalf("representation %d segment %d: size %s, want %s", i, ci, sz, want)
			}
		}
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

// TestMPDGolden pins the MPD's exact bytes, including the segment-sizes
// and peak-bitrate descriptors that carry the VBR information.
func TestMPDGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMPD(&buf, goldenManifest()); err != nil {
		t.Fatal(err)
	}
	want := `<?xml version="1.0" encoding="UTF-8"?>
<MPD xmlns="urn:mpeg:dash:schema:mpd:2011" type="static" profiles="urn:mpeg:dash:profile:isoff-on-demand:2011" mediaPresentationDuration="PT5S" minBufferTime="PT5S">
  <ProgramInformation>
    <Title>tiny</Title>
  </ProgramInformation>
  <Period id="0" duration="PT5S">
    <AdaptationSet contentType="video" segmentAlignment="true" frameRate="24">
      <Representation id="0" width="256" height="144" bandwidth="100000" codecs="avc1.640028">
        <SegmentTemplate media="seg/$RepresentationID$/$Number$" timescale="1000" duration="2500" startNumber="0"></SegmentTemplate>
        <SupplementalProperty schemeIdUri="urn:cava:segment-sizes:2018" value="250000,375000"></SupplementalProperty>
        <SupplementalProperty schemeIdUri="urn:cava:peak-bitrate:2018" value="150000"></SupplementalProperty>
      </Representation>
      <Representation id="1" width="426" height="240" bandwidth="200400" codecs="avc1.640028">
        <SegmentTemplate media="seg/$RepresentationID$/$Number$" timescale="1000" duration="2500" startNumber="0"></SegmentTemplate>
        <SupplementalProperty schemeIdUri="urn:cava:segment-sizes:2018" value="500000,751500"></SupplementalProperty>
        <SupplementalProperty schemeIdUri="urn:cava:peak-bitrate:2018" value="300600"></SupplementalProperty>
      </Representation>
    </AdaptationSet>
  </Period>
</MPD>
`
	if got := buf.String(); got != want {
		t.Errorf("MPD:\n%s\nwant:\n%s", got, want)
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

	// The MPD and playlists are served exactly as the writers render them.
	var want bytes.Buffer
	if err := WriteMPD(&want, BuildManifest(v)); err != nil {
		t.Fatal(err)
	}
	if code, got := get(t, srv.URL+"/manifest.mpd"); code != http.StatusOK || got != want.String() {
		t.Errorf("served MPD (status %d) differs from WriteMPD:\n%s", code, got)
	}
	want.Reset()
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

	if code, _ := get(t, srv.URL+"/track_99.m3u8"); code != http.StatusNotFound {
		t.Errorf("bogus media playlist status %d", code)
	}
}
